import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dichromate import (Instance, LabeledDigraph, OracleUnavailable, ParseError,
                        PreconditionViolation, emit_instance, emit_pattern, emit_witness,
                        gen_bioriented_clique, gen_planted, gen_random, instance_to_dot,
                        parse_instance, parse_witness, shortest_unbalanced_cycle, verify_witness)
from dichromate.cli import main
from dichromate.digraph import _is_dense
from dichromate.subdivision import PatternArc, SubdivisionPattern

TRIANGLE = SubdivisionPattern(3, (PatternArc(0, 1, 1, 1, 1, 2),
                                  PatternArc(1, 2, 1, 1, 0, 2),
                                  PatternArc(2, 0, 1, 1, 1, 3)))


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_mu_on_clique(tmp_path, capsys):
    inst = _write(tmp_path / "k5.txt", emit_instance(gen_bioriented_clique(5)))
    assert main(["mu", inst]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "mu 5"
    assert "oracle exact" in out


def test_mu_analytic_oracle(tmp_path, capsys):
    inst = _write(tmp_path / "k9.txt", emit_instance(gen_bioriented_clique(9)))
    assert main(["mu", inst, "--oracle", "analytic"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "mu 9"


def test_mu_analytic_refuses_untagged(tmp_path, capsys):
    text = "digraph 1\nn 2\na 0 1 1 0\na 1 0 0 0\n"
    inst = _write(tmp_path / "plain.txt", text)
    assert main(["mu", inst, "--oracle", "analytic"]) == 2


@pytest.mark.parametrize("hints", ['[1, 2]', '{"0,1,2": null}', '{"0,1,2": 2.7}',
                                   '{"0,1,2": true}', '"3"', '{"0,1,2": {"3": 3}}',
                                   '{"0,1,2": 3, "0,1": "2"}'],
                         ids=["list", "null", "float", "bool", "string", "object",
                              "second-value"])
def test_mu_rejects_a_malformed_hints_file(tmp_path, capsys, hints):
    inst = _write(tmp_path / "k3.txt", emit_instance(gen_bioriented_clique(3)))
    table = _write(tmp_path / "hints.json", hints)
    assert main(["mu", inst, "--oracle", f"hints:{table}"]) == 2
    assert capsys.readouterr() == (
        "", "error: a hints file must hold a JSON object with integer values\n")


@pytest.mark.parametrize("hints", ["[" * 2000 + "]" * 2000,
                                   '{"0,1,2":' + "[" * 2000 + "]" * 2000 + "}"],
                         ids=["array", "value"])
def test_mu_refuses_a_hints_file_nested_too_deep(tmp_path, capsys, hints):
    """JSON nested past the reader's recursion limit exits 2 with one line,
    not a RecursionError traceback."""
    inst = _write(tmp_path / "k3.txt", emit_instance(gen_bioriented_clique(3)))
    table = _write(tmp_path / "hints.json", hints)
    assert main(["mu", inst, "--oracle", f"hints:{table}"]) == 2
    assert capsys.readouterr() == (
        "", "error: a hints file must hold a JSON object with integer values\n")


def test_mu_refuses_a_planted_witness_nested_too_deep(tmp_path, capsys):
    deep = "[" * 2000 + "]" * 2000
    inst = _write(tmp_path / "deep.txt",
                  f'digraph 1\nn 2\nmeta planted_witness {{"branch":{deep},"paths":[]}}\n')
    assert main(["mu", inst]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("parse error: line 3: malformed witness JSON: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("hints, first, second", [
    ('{"0,1,2": 3, "2,1,0": 2}', "0,1,2", "2,1,0"),
    ('{"0,1,2": 3, "0,1,2": 2}', "0,1,2", "0,1,2"),
    ('{"1": 1, "0,1,2": 3, "0,2,1,1": 3}', "0,1,2", "0,2,1,1"),
], ids=["reordered", "repeated", "agreeing"])
def test_mu_rejects_hints_keys_that_name_one_vertex_set(tmp_path, capsys, hints, first, second):
    """Two keys for one vertex set are a usage error, even when their
    values agree: a table would keep the later value silently."""
    inst = _write(tmp_path / "k3.txt", emit_instance(gen_bioriented_clique(3)))
    table = _write(tmp_path / "hints.json", hints)
    assert main(["mu", inst, "--oracle", f"hints:{table}"]) == 2
    assert capsys.readouterr() == (
        "", f"error: hints keys {first!r} and {second!r} name one vertex set\n")


def test_mu_rejects_an_unknown_oracle(tmp_path, capsys):
    inst = _write(tmp_path / "k4.txt", emit_instance(gen_bioriented_clique(4)))
    assert main(["mu", inst, "--oracle", "exakt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown oracle 'exakt'" in captured.err


def test_mu_analytic_refusal_goes_to_stderr(tmp_path, capsys):
    inst = _write(tmp_path / "plain.txt", "digraph 1\nn 2\na 0 1 1 0\na 1 0 0 0\n")
    assert main(["mu", inst, "--oracle", "analytic"]) == 2
    assert capsys.readouterr() == ("", "error: --oracle analytic requires a "
                                       "bioriented_clique family tag\n")


def test_mu_limit_indeterminate(tmp_path, capsys):
    inst = _write(tmp_path / "k6.txt", emit_instance(gen_bioriented_clique(6)))
    assert main(["mu", inst, "--limit", "3"]) == 3
    assert "mu > 3" in capsys.readouterr().out


def test_mu_limit_bounds_line_reads_the_digon_clique(tmp_path, capsys):
    inst = _write(tmp_path / "k5.txt", emit_instance(gen_bioriented_clique(5)))
    assert main(["mu", inst, "--limit", "3"]) == 3
    assert capsys.readouterr().out.splitlines() == ["mu > 3", "bounds 5 5", "oracle exact"]


@pytest.mark.parametrize("oracle, name", [("analytic", "bioriented-clique"),
                                          ("hints", "hints")])
def test_mu_limit_holds_for_every_oracle(tmp_path, capsys, oracle, name):
    inst = _write(tmp_path / "k5.txt", emit_instance(gen_bioriented_clique(5)))
    if oracle == "hints":
        hints = tmp_path / "hints.json"
        hints.write_text(json.dumps({"0,1,2,3,4": 5}))
        oracle = f"hints:{hints}"
    assert main(["mu", inst, "--oracle", oracle, "--limit", "2"]) == 3
    assert capsys.readouterr().out.splitlines() == ["mu > 2", "bounds 5 5", f"oracle {name}"]
    assert main(["mu", inst, "--oracle", oracle, "--limit", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "mu 5"


@pytest.mark.parametrize("n, oracle", [(0, "exact"), (5, "exact"), (5, "analytic")])
@pytest.mark.parametrize("limit", ["-1", "-4"])
def test_mu_rejects_a_negative_limit(tmp_path, capsys, n, oracle, limit):
    """A negative limit bounds nothing: a usage error, not an indeterminate
    answer."""
    instance = gen_bioriented_clique(n) if n else Instance(LabeledDigraph.on_range(0, []))
    inst = _write(tmp_path / "k.txt", emit_instance(instance))
    assert main(["mu", inst, "--oracle", oracle, "--limit", limit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --limit must be nonnegative, got {limit}\n"
    assert main(["mu", inst, "--oracle", oracle, "--limit", "0"]) == (0 if n == 0 else 3)


def test_mu_hints_oracle(tmp_path, capsys):
    inst = _write(tmp_path / "k3.txt", emit_instance(gen_bioriented_clique(3)))
    hints = tmp_path / "hints.json"
    hints.write_text(json.dumps({"0,1,2": 3}))
    assert main(["mu", inst, "--oracle", f"hints:{hints}"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "mu 3"


def test_mu_hints_oracle_without_the_key_is_a_usage_error(tmp_path, capsys):
    inst = _write(tmp_path / "k5.txt", emit_instance(gen_bioriented_clique(5)))
    table = _write(tmp_path / "h.json", json.dumps({"0,1": 2}))
    assert main(["mu", inst, "--oracle", f"hints:{table}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "oracle unavailable: oracle 'hints' has no value for [0, 1, 2, 3, 4]\n"


@pytest.mark.parametrize("hints, limit, message", [
    ({"0,1,2,3": -5}, None, "hint -5 for key '0,1,2,3' lies outside [1, 4]"),
    ({"0,1,2,3": 9}, "5", "hint 9 for key '0,1,2,3' lies outside [1, 4]"),
    ({"0,1,2,3": 0}, None, "hint 0 for key '0,1,2,3' lies outside [1, 4]"),
    ({"0,1,2,3": 4, "": 1}, None, "hint 1 for key '' lies outside [0, 0]"),
    ({"0,1,2,3": 4, "1,7": 2}, None, "hints key '1,7' names vertices not in the instance: [7]"),
], ids=["negative", "above-size", "zero", "empty-key", "unknown-vertex"])
def test_mu_rejects_an_impossible_hint(tmp_path, capsys, hints, limit, message):
    """mu(D[S]) lies in [min(1, |S|), |S|] and S lies in D; a hints file
    that says otherwise is a usage error, not an answer."""
    inst = _write(tmp_path / "k4.txt", emit_instance(gen_bioriented_clique(4)))
    table = _write(tmp_path / "hints.json", json.dumps(hints))
    argv = ["mu", inst, "--oracle", f"hints:{table}"] + (["--limit", limit] if limit else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_mu_accepts_hints_at_both_ends_of_the_range(tmp_path, capsys):
    inst = _write(tmp_path / "k4.txt", emit_instance(gen_bioriented_clique(4)))
    table = _write(tmp_path / "hints.json", json.dumps({"0,1,2,3": 1, "": 0, "2,2,3": 2}))
    assert main(["mu", inst, "--oracle", f"hints:{table}"]) == 0
    assert capsys.readouterr().out.splitlines() == ["mu 1", "oracle hints"]


def test_check_balanced_verdicts(tmp_path, capsys):
    balanced = "digraph 1\nn 2\na 0 1 1 1\na 1 0 0 0\n"
    path = _write(tmp_path / "bal.txt", balanced)
    assert main(["check-balanced", path]) == 0
    assert "balanced" in capsys.readouterr().out
    unbalanced = _write(tmp_path / "k3.txt", emit_instance(gen_bioriented_clique(3)))
    assert main(["check-balanced", unbalanced]) == 1
    out = capsys.readouterr().out
    assert "unbalanced" in out and "cycle 0 1" in out


def test_check_balanced_subset(tmp_path, capsys):
    inst = _write(tmp_path / "k4.txt", emit_instance(gen_bioriented_clique(4)))
    assert main(["check-balanced", inst, "--subset", "2"]) == 0


def _check_balanced_reference(D, subset):
    """The command's output as once computed: the shortest unbalanced cycle
    of the induced subdigraph on the subset."""
    cycle = shortest_unbalanced_cycle(D.induced(subset))
    if cycle is None:
        return 0, "balanced\n"
    return 1, (f"unbalanced\ncycle {' '.join(map(str, cycle.vertices))}\n"
               f"weight {cycle.weight}\n")


@pytest.mark.parametrize("dense", [False, True])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_check_balanced_subset_reads_the_subset_as_a_host(tmp_path_factory, dense, data):
    n = data.draw(st.integers(11, 14) if dense else st.integers(1, 14))
    arc_p = 0.9 if dense else data.draw(st.sampled_from((0.15, 0.3, 0.6)))
    instance = gen_random(n, arc_p, 0.5, 0.4, seed=data.draw(st.integers(0, 10 ** 6)))
    D = instance.digraph
    assume(_is_dense(D) == dense)
    subset = sorted(data.draw(st.sets(st.sampled_from(D.vertices), min_size=1)))
    inst = _write(tmp_path_factory.mktemp("subset") / "d.txt", emit_instance(instance))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["check-balanced", inst, "--subset", *map(str, subset)])
    assert (code, out.getvalue()) == _check_balanced_reference(D, subset)


def test_check_balanced_subset_builds_no_subdigraph(tmp_path, capsys, monkeypatch):
    calls = []

    def induced(self, subset, _real=LabeledDigraph.induced):
        calls.append(subset)
        return _real(self, subset)
    monkeypatch.setattr(LabeledDigraph, "induced", induced)
    inst = _write(tmp_path / "k5.txt", emit_instance(gen_bioriented_clique(5)))
    assert main(["check-balanced", inst, "--subset", "0", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[1] == "cycle 0 1"
    assert main(["check-balanced", inst, "--subset", "0", "9"]) == 2
    assert capsys.readouterr().err == "error: unknown vertices in host: [9]\n"
    assert calls == []


def test_find_cycles(tmp_path, capsys):
    inst = _write(tmp_path / "k6.txt", emit_instance(gen_bioriented_clique(6)))
    assert main(["find-cycles", inst, "--count", "3"]) == 0
    assert "found 3 of 3" in capsys.readouterr().out
    assert main(["find-cycles", inst, "--count", "4"]) == 1


@pytest.mark.parametrize("count", ["0", "-2"])
def test_find_cycles_rejects_a_count_below_1(tmp_path, capsys, count):
    inst = _write(tmp_path / "k6.txt", emit_instance(gen_bioriented_clique(6)))
    assert main(["find-cycles", inst, "--count", count]) == 2
    assert capsys.readouterr() == ("", f"error: --count must be at least 1, got {count}\n")


def test_find_subdivision_direct_and_verify(tmp_path, capsys):
    planted = gen_planted(TRIANGLE, extra_vertices=3, extra_arcs=9, seed=11)
    inst = _write(tmp_path / "inst.txt", emit_instance(planted))
    pat = _write(tmp_path / "pat.txt", emit_pattern(TRIANGLE))
    wit = tmp_path / "wit.txt"
    assert main(["find-subdivision", inst, pat, "--mode", "direct",
                 "--out", str(wit)]) == 0
    witness = parse_witness(wit.read_text())
    assert verify_witness(planted.digraph, TRIANGLE, witness).ok
    assert main(["verify", inst, pat, str(wit)]) == 0
    assert "pass" in capsys.readouterr().out


def test_verify_metadata_witness(tmp_path):
    from dichromate import emit_witness
    planted = gen_planted(TRIANGLE, extra_vertices=4, extra_arcs=10, seed=6)
    inst = _write(tmp_path / "inst.txt", emit_instance(planted))
    pat = _write(tmp_path / "pat.txt", emit_pattern(TRIANGLE))
    wit = _write(tmp_path / "wit.txt", emit_witness(planted.planted_witness))
    assert main(["verify", inst, pat, wit]) == 0


def test_find_subdivision_direct_seeded(tmp_path):
    planted = gen_planted(TRIANGLE, extra_vertices=3, extra_arcs=9, seed=11)
    inst = _write(tmp_path / "inst.txt", emit_instance(planted))
    pat = _write(tmp_path / "pat.txt", emit_pattern(TRIANGLE))
    wit = tmp_path / "wit.txt"
    assert main(["find-subdivision", inst, pat, "--seed", "5",
                 "--out", str(wit)]) == 0
    witness = parse_witness(wit.read_text())
    assert verify_witness(planted.digraph, TRIANGLE, witness).ok


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_find_subdivision_seeded_witness_is_pinned(tmp_path):
    """The search under --seed 5 meets another witness than the plain one,
    and maps it back to the instance's vertex ids byte for byte."""
    planted = gen_planted(TRIANGLE, extra_vertices=3, extra_arcs=9, seed=11)
    inst = _write(tmp_path / "inst.txt", emit_instance(planted))
    pat = _write(tmp_path / "pat.txt", emit_pattern(TRIANGLE))
    wit = tmp_path / "wit.txt"
    assert main(["find-subdivision", inst, pat, "--seed", "5", "--out", str(wit)]) == 0
    assert _sha256(wit).startswith("952a3326e8ea9a56")
    assert main(["find-subdivision", inst, pat, "--out", str(wit)]) == 0
    assert _sha256(wit).startswith("6601bc8d90d136ed")


K4_TRANSITIVE = "pattern 1\nn 4\n" + "".join(
    f"e {t} {h} 1 1 1 5\n" for t, h in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.mark.parametrize("host, options, code, err", [
    (["--n", "12", "--arc-p", "0.18", "--seed", "6"], [], 1, "none\n"),
    (["--n", "14", "--arc-p", "0.25", "--seed", "84"], ["--budget", "3"], 3,
     "indeterminate after 3 expansions\n"),
], ids=["absent", "budget"])
def test_a_seeded_search_without_a_witness_keeps_its_exit_code(tmp_path, capsys, host, options,
                                                               code, err):
    """The CLI pins' benchmark-pool hosts with the K4-transitive pattern,
    searched under --seed 5: no witness to map back, the same answer."""
    inst, out = str(tmp_path / "inst.txt"), tmp_path / "w.txt"
    pat = _write(tmp_path / "k4.txt", K4_TRANSITIVE)
    assert main(["gen", "random", *host, "--out", inst]) == 0
    assert main(["find-subdivision", inst, pat, "--seed", "5", *options,
                 "--out", str(out)]) == code
    assert capsys.readouterr() == ("", err)
    assert not out.exists()


@pytest.mark.parametrize("mode, option, value, owner", [
    ("constructive", "--budget", "1", "direct"),
    ("constructive", "--seed", "5", "direct"),
    ("direct", "--oracle", "bogus", "constructive"),
    ("direct", "--floor", "0", "constructive"),
    ("direct", "--start", "999", "constructive"),
], ids=["budget", "seed", "oracle", "floor", "start"])
def test_find_subdivision_refuses_an_option_of_the_other_mode(tmp_path, capsys, mode, option,
                                                              value, owner):
    inst = _write(tmp_path / "k26.txt", emit_instance(gen_bioriented_clique(26)))
    pat = _write(tmp_path / "pat.txt", "pattern 1\nn 2\ne 0 1 1 1 1 2\n")
    out = tmp_path / "w.txt"
    assert main(["find-subdivision", inst, pat, "--mode", mode, "--out", str(out),
                 *(["--floor", "14"] if mode == "constructive" else []), option, value]) == 2
    assert capsys.readouterr() == ("", f"error: {option} applies to --mode {owner} only\n")
    assert not out.exists()


def test_find_subdivision_absent_and_budget(tmp_path, capsys):
    tiny = "digraph 1\nn 2\na 0 1 0 0\n"
    inst = _write(tmp_path / "tiny.txt", tiny)
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    pat = _write(tmp_path / "pat.txt", emit_pattern(pattern))
    assert main(["find-subdivision", inst, pat]) == 1
    planted = gen_planted(TRIANGLE, extra_vertices=3, extra_arcs=9, seed=11)
    inst2 = _write(tmp_path / "inst2.txt", emit_instance(planted))
    pat2 = _write(tmp_path / "pat2.txt", emit_pattern(TRIANGLE))
    assert main(["find-subdivision", inst2, pat2, "--budget", "2"]) == 3


def test_find_subdivision_budget_message_counts_the_budget(tmp_path, capsys):
    pattern = _write(tmp_path / "pat.txt", "pattern 1\nn 3\ne 0 1 1 1 1 3\n"
                     "e 1 2 1 1 2 3\ne 2 0 1 1 0 3\n")
    inst = str(tmp_path / "inst.txt")
    assert main(["gen", "planted", "--pattern", pattern, "--extra-vertices", "4",
                 "--extra-arcs", "12", "--seed", "3", "--out", inst]) == 0
    capsys.readouterr()
    assert main(["find-subdivision", inst, pattern, "--mode", "direct",
                 "--budget", "3"]) == 3
    assert capsys.readouterr().err == "indeterminate after 3 expansions\n"


def test_find_subdivision_constructive(tmp_path, capsys):
    inst = _write(tmp_path / "k26.txt", emit_instance(gen_bioriented_clique(26)))
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    pat = _write(tmp_path / "pat.txt", emit_pattern(pattern))
    wit = tmp_path / "wit.txt"
    dot = tmp_path / "pic.dot"
    assert main(["find-subdivision", inst, pat, "--mode", "constructive",
                 "--floor", "14", "--out", str(wit), "--dot", str(dot)]) == 0
    witness = parse_witness(wit.read_text())
    clique = parse_instance((tmp_path / "k26.txt").read_text()).digraph
    assert verify_witness(clique, pattern, witness).ok
    assert dot.read_text().startswith("digraph D {")


def test_find_subdivision_constructive_failure(tmp_path, capsys):
    balanced = "digraph 1\nn 2\na 0 1 1 1\na 1 0 0 0\n"
    inst = _write(tmp_path / "bal.txt", balanced)
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    pat = _write(tmp_path / "pat.txt", emit_pattern(pattern))
    assert main(["find-subdivision", inst, pat, "--mode", "constructive",
                 "--floor", "14"]) == 1


def test_find_subdivision_constructive_failure_names_step_and_depth(tmp_path, capsys):
    inst = _write(tmp_path / "k30.txt", emit_instance(gen_bioriented_clique(30)))
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 3),))
    pat = _write(tmp_path / "pat.txt", emit_pattern(pattern))
    assert main(["find-subdivision", inst, pat, "--mode", "constructive",
                 "--floor", "14"]) == 1
    assert capsys.readouterr().err == (
        "construction failed at core-floor (step 2) (depth 0): "
        "best residue class has mu below the floor 14\n")


@pytest.mark.parametrize("n, detail", [(0, "an empty digraph has no start vertex"),
                                        (5, "no levels beyond the start")],
                         ids=["empty", "isolated"])
def test_find_subdivision_constructive_on_an_arcless_host_exits_1(tmp_path, capsys, n, detail):
    """An empty digraph is a failed construction, as an arc-less one is,
    not a violated precondition (exit 2)."""
    inst = _write(tmp_path / "empty.txt", f"digraph 1\nn {n}\n")
    pat = _write(tmp_path / "arc.txt", "pattern 1\nn 2\ne 0 1 1 1 0 2\n")
    assert main(["find-subdivision", inst, pat, "--mode", "constructive"]) == 1
    assert capsys.readouterr() == ("", f"construction failed at entry-split (depth 0): {detail}\n")


@pytest.mark.parametrize("floor", ["0", "-3"])
def test_find_subdivision_constructive_rejects_a_floor_below_1(tmp_path, capsys, floor):
    inst = _write(tmp_path / "k26.txt", emit_instance(gen_bioriented_clique(26)))
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    pat = _write(tmp_path / "pat.txt", emit_pattern(pattern))
    out = str(tmp_path / "w.txt")
    assert main(["find-subdivision", inst, pat, "--mode", "constructive",
                 "--floor", floor, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: floor must be at least 1, got {floor}\n"
    assert not (tmp_path / "w.txt").exists()


def test_find_subdivision_constructive_rejects_an_unknown_start(tmp_path, capsys):
    inst = _write(tmp_path / "k26.txt", emit_instance(gen_bioriented_clique(26)))
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    pat = _write(tmp_path / "pat.txt", emit_pattern(pattern))
    assert main(["find-subdivision", inst, pat, "--mode", "constructive",
                 "--floor", "14", "--start", "999"]) == 2
    assert "unknown start vertex 999" in capsys.readouterr().err


def test_verify_fail_and_malformed(tmp_path, capsys):
    planted = gen_planted(TRIANGLE, extra_vertices=0, extra_arcs=0, seed=1)
    inst = _write(tmp_path / "inst.txt", emit_instance(planted))
    pat = _write(tmp_path / "pat.txt", emit_pattern(TRIANGLE))
    bad_wit = _write(tmp_path / "bad.txt", "witness 1\nbranch 0 0\nbranch 1 1\nbranch 2 2\n")
    assert main(["verify", inst, pat, bad_wit]) == 1
    assert "fail" in capsys.readouterr().out
    malformed = _write(tmp_path / "junk.txt", "witness 9\n")
    assert main(["verify", inst, pat, malformed]) == 2


def test_verify_and_gen_draw_what_they_read_or_write(tmp_path):
    planted = gen_planted(TRIANGLE, extra_vertices=3, extra_arcs=9, seed=11)
    inst = _write(tmp_path / "inst.txt", emit_instance(planted))
    pat = _write(tmp_path / "pat.txt", emit_pattern(TRIANGLE))
    wit = _write(tmp_path / "wit.txt", emit_witness(planted.planted_witness))
    dot = tmp_path / "pic.dot"
    assert main(["verify", inst, pat, wit, "--dot", str(dot)]) == 0
    assert dot.read_text() == instance_to_dot(planted, witness=planted.planted_witness)
    out = tmp_path / "k4.txt"
    assert main(["gen", "clique", "--n", "4", "--out", str(out), "--dot", str(dot)]) == 0
    assert dot.read_text() == instance_to_dot(parse_instance(out.read_text()))


def test_gen_round_trips_through_cli(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    assert main(["gen", "clique", "--n", "4", "--out", str(out)]) == 0
    inst = parse_instance(out.read_text())
    assert inst.mu_analytic == 4
    assert main(["gen", "random", "--n", "6", "--arc-p", "0.4", "--seed", "3",
                 "--out", str(out)]) == 0
    parse_instance(out.read_text())
    pat = _write(tmp_path / "pat.txt", emit_pattern(TRIANGLE))
    assert main(["gen", "planted", "--pattern", pat, "--extra-vertices", "2",
                 "--extra-arcs", "4", "--seed", "1", "--out", str(out)]) == 0
    planted = parse_instance(out.read_text())
    assert planted.planted_witness is not None
    assert verify_witness(planted.digraph, TRIANGLE, planted.planted_witness).ok


@pytest.mark.parametrize("pattern", ["pattern 1\nn 3\n", "pattern 1\nn 3\ne 0 2 1 1 1 2\n"])
@pytest.mark.parametrize("option", [["--extra-vertices", "-1"], ["--extra-arcs", "-5"],
                                    ["--z1-p", "7"]])
def test_gen_planted_bad_input_exits_2(tmp_path, capsys, pattern, option):
    pat = _write(tmp_path / "pat.txt", pattern)
    out = tmp_path / "inst.txt"
    assert main(["gen", "planted", "--pattern", pat, *option, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_gen_to_stdout_deterministic(tmp_path, capsys):
    assert main(["gen", "clique", "--n", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "clique", "--n", "3"]) == 0
    assert capsys.readouterr().out == first


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    assert main(["mu", str(tmp_path / "missing.txt")]) == 2
    bad = _write(tmp_path / "bad.txt", "digraph 1\nn 2\na 0 1\n")
    assert main(["mu", bad]) == 2


def test_unreadable_input_exits_2(tmp_path, capsys):
    assert main(["mu", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("fault, line", [
    (ParseError(3, "x"), "parse error: line 3: x"),
    (FileNotFoundError(2, "No such file or directory", "h.json"),
     "error: [Errno 2] No such file or directory: 'h.json'"),
    (OracleUnavailable([0], "hints"), "oracle unavailable: oracle 'hints' has no value for [0]"),
    (PreconditionViolation("p"), "precondition violated: p"),
    (ValueError("v"), "error: v"),
], ids=["parse", "os", "oracle", "precondition", "value"])
def test_each_usage_fault_exits_2_with_its_stderr_line(tmp_path, capsys, monkeypatch,
                                                       fault, line):
    inst = _write(tmp_path / "k3.txt", emit_instance(gen_bioriented_clique(3)))

    def fail(*args, **kwargs):
        raise fault

    monkeypatch.setattr("dichromate.cli.mu_exact", fail)
    assert main(["mu", inst]) == 2
    assert capsys.readouterr() == ("", line + "\n")


def test_any_other_fault_propagates(tmp_path, monkeypatch):
    inst = _write(tmp_path / "k3.txt", emit_instance(gen_bioriented_clique(3)))

    def fail(*args, **kwargs):
        raise RuntimeError("r")

    monkeypatch.setattr("dichromate.cli.mu_exact", fail)
    with pytest.raises(RuntimeError, match="^r$"):
        main(["mu", inst])


# The CLI pins, run in order in one directory: each command, the exit code
# it returns, and the lines it prints, stdout then stderr, in full, or up to
# a closing `...`.  A command given `--out w.txt` that writes the file
# prints one more line here: `w.txt` and the first 16 hex digits of its sha256.
CLI_PINS = [
    ("gen clique --n 5 --out k5.txt", 0, []),
    ("mu k5.txt --limit 2", 3, ["mu > 2", "bounds 5 5", "oracle exact"]),
    ("mu k5.txt --oracle hints:h9.json", 2, [
        "error: hint 9 for key '0,1,2,3,4' lies outside [1, 5], the range of mu on 5 vertices"]),
    ("gen clique --n 140 --out k140.txt", 0, []),
    ("mu k140.txt --oracle analytic", 0, ["mu 140", "oracle bioriented-clique", ...]),
    ("mu tabs.txt --oracle analytic", 0, ["mu 140", "oracle bioriented-clique", ...]),
    ("mu bad.txt --oracle analytic", 2,
     ["parse error: line 1000: z1 flag must be 0 or 1, got '2'"]),
    ("mu dup.txt --oracle analytic", 2, ["parse error: line 19462: duplicate arc (0, 1)"]),
    ("mu mid.txt --oracle analytic", 2, ["parse error: line 5000: duplicate arc (0, 1)"]),
    ("gen random --n 60 --arc-p 0.05 --seed 1 --out sparse.txt", 0, []),
    ("mu sparse.txt", 0, ["mu 2", "oracle exact", ...]),
    ("mu sparse.txt --limit 1", 3, ["mu > 1", "bounds 2 3", "oracle exact"]),
    ("check-balanced sparse.txt", 1, ["unbalanced", "cycle 33 37", "weight 1"]),
    ("find-cycles sparse.txt --count 2", 0, ["found 2 of 2", "cycle 33 37", "cycle 9 43 38"]),
    ("gen random --n 22 --arc-p 0.5 --seed 0 --out dense.txt", 0, []),
    ("mu dense.txt", 0, ["mu 4", "oracle exact", ...]),
    ("mu dense.txt --limit 2", 3, ["mu > 2", "bounds 3 6", "oracle exact"]),
    ("gen random --n 80 --arc-p 0.0625 --z1-p 0.5 --z2-p 0.5 --seed 1 --out sparse80.txt", 0,
     []),
    ("mu sparse80.txt", 0, ["mu 2", "oracle exact", ...]),
    ("gen planted --pattern tri3.txt --extra-vertices 4 --extra-arcs 12 --seed 3 "
     "--out planted.txt", 0, []),
    ("find-subdivision planted.txt tri3.txt --mode direct --out w.txt", 0,
     ["w.txt 5540d2fe2b798407"]),
    ("verify planted.txt tri3.txt w.txt", 0, ["pass"]),
    ("gen planted --pattern tri3.txt --extra-vertices -1 --out none.txt", 2,
     ["error: extra vertex count must be nonnegative, got -1"]),
    ("gen planted --pattern heads.txt --extra-vertices 4 --extra-arcs 16 --seed 5 "
     "--out heads-inst.txt", 0, []),
    ("find-subdivision heads-inst.txt heads.txt --mode direct --out w.txt", 0,
     ["w.txt 8a0c10ce8dae8630"]),
    ("verify heads-inst.txt heads.txt w.txt", 0, ["pass"]),
    ("gen random --n 14 --arc-p 0.25 --seed 84 --out pool84.txt", 0, []),
    ("find-subdivision pool84.txt k4.txt --mode direct --out w.txt", 0,
     ["w.txt ae4b8c64526ba3bb"]),
    ("verify pool84.txt k4.txt w.txt", 0, ["pass"]),
    ("find-subdivision pool84.txt k4.txt --mode direct --budget 3", 3,
     ["indeterminate after 3 expansions"]),
    ("find-subdivision pool84.txt k4.txt --mode direct --budget 283 --out w.txt", 0,
     ["w.txt ae4b8c64526ba3bb"]),
    ("find-subdivision pool84.txt k4.txt --mode direct --budget 282 --out w.txt", 3,
     ["indeterminate after 282 expansions"]),
    ("gen random --n 12 --arc-p 0.18 --seed 6 --out pool6.txt", 0, []),
    ("find-subdivision pool6.txt k4.txt --mode direct", 1, ["none"]),
    ("gen random --n 3 --arc-p 0.5 --seed 1 --out tiny.txt", 0, []),
    ("find-subdivision tiny.txt k4.txt --mode direct", 1, ["none"]),
    ("find-subdivision star.txt star-pat.txt --out w.txt", 0, ["w.txt 35b43e1b2eb2951c"]),
    ("verify star.txt star-pat.txt w.txt", 0, ["pass"]),
    ("gen clique --n 30 --out k30.txt", 0, []),
    ("find-subdivision k30.txt p.txt --mode constructive --floor 14 --out w.txt", 0,
     ["w.txt 9edc5e8ca9d79170"]),
    ("verify k30.txt p.txt w.txt", 0, ["pass"]),
    ("find-subdivision k30.txt p.txt --mode constructive --oracle exact --floor 14 --out w.txt",
     0, ["w.txt 9edc5e8ca9d79170"]),
    ("verify k30.txt p.txt w.txt", 0, ["pass"]),
    ("find-subdivision hub.txt p.txt --mode constructive --oracle exact --floor 14 --out w.txt",
     0, ["w.txt b1989aad095cd27c"]),
    ("verify hub.txt p.txt w.txt", 0, ["pass"]),
    ("find-subdivision k30.txt p.txt --mode constructive --floor 0", 2,
     ["error: floor must be at least 1, got 0"]),
    ("mu k30.txt --limit -1", 2, ["error: --limit must be nonnegative, got -1"]),
    ("find-subdivision k140.txt tri.txt --mode constructive --floor 14 --out w.txt", 0,
     ["w.txt 8c78ae66523065af"]),
    ("verify k140.txt tri.txt w.txt", 0, ["pass"]),
]


def _write_pin_inputs(tmp_path):
    """The files the pins read that no pinned command writes: patterns, a
    hints file, the hub and the star, and copies of the K_140 file with tab
    separators, blank lines and comments, or with one faulty line."""
    for name, n, arcs in [("p.txt", 2, ["0 1 1 1 1 2"]),
                          ("tri.txt", 3, ["0 1 1 1 0 2", "1 2 1 1 1 2", "2 0 1 1 0 2"]),
                          ("tri3.txt", 3, ["0 1 1 1 1 3", "1 2 1 1 2 3", "2 0 1 1 0 3"]),
                          ("heads.txt", 3, ["0 1 1 1 1 2", "0 2 1 2 1 3", "1 2 2 1 0 3"])]:
        _write(tmp_path / name, f"pattern 1\nn {n}\n" + "".join(f"e {a}\n" for a in arcs))
    _write(tmp_path / "k4.txt", K4_TRANSITIVE)
    _write(tmp_path / "h9.json", json.dumps({"0,1,2,3,4": 9}))
    clique = [v for v in range(23) if v != 6]
    arcs = [(u, v) for u in clique for v in clique if u != v]
    digons = [(6, v) for v in clique] + [(v, 6) for v in clique]
    hub = LabeledDigraph.on_range(23, arcs + digons, z1=arcs)
    _write(tmp_path / "hub.txt", emit_instance(Instance(hub)))
    star = LabeledDigraph.on_range(1001, [(i, 1000) for i in range(1000)])
    _write(tmp_path / "star.txt", emit_instance(Instance(star)))
    _write(tmp_path / "star-pat.txt", "pattern 1\nn 1001\n"
           + "".join(f"e {i} 1000 1 1 0 2\n" for i in range(1000)))
    lines = emit_instance(gen_bioriented_clique(140)).splitlines()
    tabs = ["# a bioriented K_140, tab-separated"]
    for line_no, line in enumerate(lines, 1):
        if line_no == 500:
            tabs.append("# a comment among the arcs")
        tabs += [line.replace(" ", "\t"), ""]
    _write(tmp_path / "tabs.txt", "\n".join(tabs) + "\n")
    for name, at, was, now in [("bad.txt", 1000, "a 7 25 1 0", "a 7 25 2 0"),
                               ("dup.txt", 19462, "a 139 138 1 0", "a 0 1 0 0"),
                               ("mid.txt", 5000, "a 35 133 1 0", "a 0 1 1 0")]:
        assert lines[at - 1] == was
        _write(tmp_path / name, "\n".join(lines[:at - 1] + [now] + lines[at:]) + "\n")


def test_the_cli_pins_hold(tmp_path, capsys, monkeypatch):
    """The home of the CLI pins: exit codes, output lines and witness
    digests of the subcommands on seeded inputs, each run in-process
    through ``main``, as the console script runs it.  ``mu`` with its
    bounds and certificate lines on cliques and seeded random digraphs; the
    parse errors of a K_140 file with one faulty line, at its start, in
    mid-run and at its end, and the same output for a non-canonical copy;
    the direct finder on a planted triangle, on two arcs into one head
    with q = 3, on benchmark-pool hosts with the K4-transitive pattern (the
    expansion budget at which the witness is found, 283, and one below
    it) and on the 1,001-vertex star; the constructive pipeline with both
    oracles on K_30, the hub and K_140; and ``verify`` on each witness."""
    monkeypatch.chdir(tmp_path)
    _write_pin_inputs(tmp_path)
    witness = tmp_path / "w.txt"
    printed = {}
    for command, code, lines in CLI_PINS:
        writes = "--out w.txt" in command
        if writes:
            witness.unlink(missing_ok=True)
        returned = main(command.split())
        out, err = capsys.readouterr()
        printed[command] = out
        seen = out.splitlines() + err.splitlines()
        if writes and witness.exists():
            seen.append(f"w.txt {_sha256(witness)[:16]}")
        if lines and lines[-1] is ...:
            lines, seen = lines[:-1], seen[:len(lines) - 1]
        assert (command, returned, seen) == (command, code, lines)
    assert printed["mu tabs.txt --oracle analytic"] == printed["mu k140.txt --oracle analytic"]
