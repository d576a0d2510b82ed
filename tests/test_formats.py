import gc
import math
import os
import stat
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import first_record_fault
from conftest import SRC, digon, digraph, labeled_digraphs, sparse_or_dense_digraphs
from dichromate import (DirectedPath, Instance, LabeledDigraph, ParseError, PatternArc,
                        SubdivisionPattern, SubdivisionWitness, emit_instance,
                        emit_pattern, emit_witness, gen_bioriented_clique,
                        gen_planted, gen_random, instance_to_dot,
                        parse_instance, parse_pattern, parse_witness,
                        write_text_atomic)

DIGON_FILE = """digraph 1
n 2
a 0 1 1 0
a 1 0 0 0
"""


def test_parse_canonical_digon():
    inst = parse_instance(DIGON_FILE)
    assert inst.digraph.n == 2 and inst.digraph.arc_count == 2
    assert inst.digraph.z1 == {(0, 1)}
    assert emit_instance(inst) == DIGON_FILE


def test_parse_accepts_comments_and_blanks():
    text = "# a digon\n\ndigraph 1\nn 2\na 0 1 1 0\n\na 1 0 0 0\n"
    assert emit_instance(parse_instance(text)) == DIGON_FILE


def test_parse_rejects_duplicate_arc():
    bad = "digraph 1\nn 2\na 0 1 1 0\na 0 1 0 0\n"
    with pytest.raises(ParseError) as info:
        parse_instance(bad)
    assert info.value.line_no == 4


def test_parse_rejects_loop_and_range():
    with pytest.raises(ParseError):
        parse_instance("digraph 1\nn 2\na 1 1 0 0\n")
    with pytest.raises(ParseError):
        parse_instance("digraph 1\nn 2\na 0 5 0 0\n")


@pytest.mark.parametrize("text, line_no, message", [
    ("digraph 1\nn 2\na 0 1 1 0\na 0 1 0 0\n", 4, "duplicate arc (0, 1)"),
    ("digraph 1\nn 2\na 1 1 0 0\n", 3, "loop at vertex 1"),
    ("digraph 1\nn 2\na 0 5 0 0\n", 3, "arc (0, 5) uses an unknown vertex"),
    ("digraph 1\nn 2\na -1 0 0 0\n", 3, "arc (-1, 0) uses an unknown vertex"),
    ("digraph 1\nn 2\na 5 5 0 0\n", 3, "loop at vertex 5"),
    ("digraph 1\nn -1\n", 2, "vertex count must be nonnegative, got -1"),
    ("digraph 1\nn -1\na 0 1 0 0\n", 2, "vertex count must be nonnegative, got -1"),
    ("digraph 1\nn 3\n\n# two faults\na 0 1 0 0\na 2 2 1 0\na 0 1 0 1\n", 6,
     "loop at vertex 2"),
    ("digraph 1\nn 3\na 0 1 0 0\nmeta family x\na 1 0 0 0\na 1 0 1 1\na 0 7 0 0\n", 6,
     "duplicate arc (1, 0)"),
], ids=["duplicate", "loop", "out-of-range", "negative-vertex", "loop-out-of-range",
        "negative-count", "negative-count-with-arcs", "two-faults", "fault-after-meta"])
def test_parse_instance_errors_name_the_record_line(text, line_no, message):
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert info.value.line_no == line_no
    assert str(info.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize("key, first, second", [
    ("family", "a", "b"), ("mu_analytic", "2", "2"),
])
def test_parse_rejects_a_repeated_metadata_key(key, first, second):
    text = f"digraph 1\nn 2\nmeta {key} {first}\na 0 1 0 0\nmeta {key} {second}\n"
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert info.value.line_no == 5
    assert str(info.value) == f"line 5: duplicate metadata key {key!r}"


@pytest.mark.parametrize("blob, message", [
    ('{"branch":[0,1,2],"paths":[[0,1,[0,1,2]],[0,1,[0,2]]]}',
     "duplicate path record for (0, 1)"),
    ('{"branch":[0,1],"branch":[0,1,2],"paths":[]}', "duplicate key 'branch'"),
    ('{"branch":[0,1],"paths":[],"paths":[[0,1,[0,1]]]}', "duplicate key 'paths'"),
], ids=["path", "branch", "paths"])
def test_a_planted_witness_refuses_a_repeated_key(blob, message):
    """JSON lets the last of two values win; the witness file refuses a
    repeated path record, and this reader refuses both at the meta line."""
    with pytest.raises(ParseError) as info:
        parse_instance(f"digraph 1\nn 3\nmeta planted_witness {blob}\n")
    assert str(info.value) == f"line 3: malformed witness JSON: {message}"


@pytest.mark.parametrize("where", ["branch", "path", "paths"])
def test_a_planted_witness_nested_too_deep_is_a_parse_error(where):
    """2,000 nested arrays pass the JSON reader's recursion limit; the
    reader refuses them at the meta line instead of raising RecursionError."""
    deep = "[" * 2000 + "]" * 2000
    blob = {"branch": f'{{"branch":{deep},"paths":[]}}',
            "path": f'{{"branch":[0,1],"paths":[[0,1,{deep}]]}}',
            "paths": f'{{"branch":[0,1],"paths":{deep}}}'}[where]
    with pytest.raises(ParseError) as info:
        parse_instance(f"digraph 1\nn 3\n# deep\nmeta planted_witness {blob}\n")
    assert info.value.line_no == 4
    assert str(info.value).startswith("line 4: malformed witness JSON: ")


@settings(max_examples=300, deadline=None)
@given(labeled_digraphs(max_n=6), st.data())
def test_parse_reports_an_injected_fault_where_the_line_checks_find_it(D, data):
    """One faulty arc line inserted anywhere among the arcs of an emitted
    instance: a loop, a vertex out of range (either end, either side) or a
    copy of an existing arc."""
    lines = emit_instance(Instance(D)).splitlines()
    first_arc = 2  # after the header and the vertex count
    at = data.draw(st.integers(first_arc, first_arc + D.arc_count), label="position")
    kinds = ["loop", "range"] + (["duplicate"] if D.arcs else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "loop":
        u = v = data.draw(st.integers(-1, D.n + 1))
    elif kind == "range":
        outside = st.integers(-3, -1) | st.integers(D.n, D.n + 3)
        u, v = data.draw(st.tuples(outside, st.integers(-1, D.n + 1)))
        if data.draw(st.booleans(), label="head outside"):
            u, v = v, u
    else:
        u, v = data.draw(st.sampled_from(D.arcs))
    flags = data.draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
    lines.insert(at, f"a {u} {v} {flags[0]} {flags[1]}")
    text = "\n".join(lines) + "\n"
    expected = first_record_fault(text)
    assert expected is not None
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert (info.value.line_no, str(info.value)) == (
        expected[0], f"line {expected[0]}: {expected[1]}")


def _count_calls(monkeypatch, cls, name):
    calls = []
    method = getattr(cls, name)

    def counted(self, *args):
        calls.append(1)
        return method(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_a_fault_in_the_last_arc_of_k140_is_found_by_bisection(monkeypatch):
    lines = emit_instance(gen_bioriented_clique(140)).splitlines()
    arc_lines = [i for i, line in enumerate(lines) if line.startswith("a ")]
    lines[arc_lines[-1]] = "a 0 1 0 0"  # a repeat of the first arc
    records = 1 + len(arc_lines)
    built = _count_calls(monkeypatch, LabeledDigraph, "__init__")
    with pytest.raises(ParseError) as info:
        parse_instance("\n".join(lines) + "\n")
    assert str(info.value) == f"line {arc_lines[-1] + 1}: duplicate arc (0, 1)"
    assert len(built) <= math.ceil(math.log2(records)) + 2


def test_locating_an_instance_fault_builds_no_digraph_with_arcs(monkeypatch):
    """The bisection probes build only arc-less digraphs, for the vertex
    count, and run the arc checks on their own, whichever record is at
    fault; the one digraph given arcs is the one given every record."""
    lines = emit_instance(gen_bioriented_clique(12)).splitlines()
    arc_count = sum(line.startswith("a ") for line in lines)
    built = []
    real = LabeledDigraph.__init__

    def counted(self, vertices, arcs=(), *args):
        built.append(len(arcs))
        return real(self, vertices, arcs, *args)

    monkeypatch.setattr(LabeledDigraph, "__init__", counted)
    for at, bad in ((3, "a 5 5 0 0"), (40, "a 0 99 1 0"), (len(lines), "a 0 1 0 0")):
        built.clear()
        with pytest.raises(ParseError) as info:
            parse_instance("\n".join(lines[:at] + [bad] + lines[at:]) + "\n")
        assert info.value.line_no == at + 1
        assert built[0] == arc_count + 1 and not any(built[1:])


def test_a_fault_in_the_last_arc_of_a_long_pattern_is_found_by_bisection(monkeypatch):
    pairs = [(u, v) for u in range(72) for v in range(72) if u != v][:5000]
    lines = ["pattern 1", "n 72"] + [f"e {u} {v} 1 1 0 2" for u, v in pairs]
    lines.append("e 0 1 1 1 1 2")  # a repeat of the first arc
    built = _count_calls(monkeypatch, SubdivisionPattern, "__init__")
    with pytest.raises(ParseError) as info:
        parse_pattern("\n".join(lines) + "\n")
    assert str(info.value) == f"line {len(lines)}: duplicate pattern arc (0, 1)"
    assert len(built) <= math.ceil(math.log2(len(pairs) + 2)) + 2


def test_a_rejected_file_builds_its_digraph_or_pattern_once(monkeypatch):
    """The arc rule names the faulty record by its index, so the readers
    build no prefix of the records: a K_140 file whose last arc repeats the
    first builds one digraph, and so does a 5,001-arc pattern its pattern."""
    lines = emit_instance(gen_bioriented_clique(140)).splitlines()
    last_arc = max(i for i, line in enumerate(lines) if line.startswith("a "))
    lines[last_arc] = "a 0 1 0 0"
    built = _count_calls(monkeypatch, LabeledDigraph, "__init__")
    with pytest.raises(ParseError) as info:
        parse_instance("\n".join(lines) + "\n")
    assert str(info.value) == "line 19462: duplicate arc (0, 1)"
    assert len(built) == 1
    pairs = [(u, v) for u in range(72) for v in range(72) if u != v][:5000]
    lines = ["pattern 1", "n 72"] + [f"e {u} {v} 1 1 0 2" for u, v in pairs] + ["e 0 1 1 1 1 2"]
    built = _count_calls(monkeypatch, SubdivisionPattern, "__init__")
    with pytest.raises(ParseError) as info:
        parse_pattern("\n".join(lines) + "\n")
    assert str(info.value) == "line 5003: duplicate pattern arc (0, 1)"
    assert len(built) == 1


def test_a_class_that_holds_every_arc_keeps_no_table_of_its_own():
    """A bioriented K_60 with every arc in z1 reads to a digraph whose z1 is
    its arc set.  The same file with the last arc's flags 0 0 keeps a z1
    table of its own, so it retains at least half an arc-set table more."""
    text = emit_instance(Instance(gen_bioriented_clique(60).digraph))
    assert text.endswith(" 1 0\n")

    def retained(text: str) -> tuple[int, LabeledDigraph]:
        gc.collect()
        tracemalloc.start()
        try:
            D = parse_instance(text).digraph
            gc.collect()
            return tracemalloc.get_traced_memory()[0], D
        finally:
            tracemalloc.stop()
    shared, D = retained(text)
    own, E = retained(text[:-len("1 0\n")] + "0 0\n")
    assert own - shared >= sys.getsizeof(D._arcset) // 2
    assert D.z1 is D._arcset and E.z1 is not E._arcset


def test_parse_rejects_malformed_fields():
    with pytest.raises(ParseError):
        parse_instance("digraph 1\nn 2\na 0 1 2 0\n")
    with pytest.raises(ParseError):
        parse_instance("digraph 1\nn two\n")
    with pytest.raises(ParseError):
        parse_instance("digraph 9\nn 2\n")
    with pytest.raises(ParseError):
        parse_instance("pattern 1\nn 2\n")
    with pytest.raises(ParseError):
        parse_instance("")


# a bioriented K_46 as canonical arc lines, every arc in z1: 2,070 lines,
# which the reader takes as runs of 1,024, 1,024 and 22
_K46 = [f"a {u} {v} 1 0" for u in range(46) for v in range(46) if u != v]


def _k46_file(arc_lines: list[str]) -> str:
    return "".join(f"{line}\n" for line in ["digraph 1", "n 46", *arc_lines])


@pytest.mark.parametrize("parse, text, line_no, message", [
    (parse_instance, "digraph 1\nmeta planted_witness {}\n", 2,
     "malformed witness JSON: 'branch'"),
    (parse_instance, 'digraph 1\nn 3\nmeta planted_witness {"branch":[0,1.7],"paths":[]}\n',
     3, "malformed witness JSON: vertex id 1.7 is not an integer"),
    (parse_instance, 'digraph 1\nn 3\nmeta planted_witness {"branch":[0,1],'
     '"paths":[[0,1.5,[0,1]]]}\n', 3, "malformed witness JSON: vertex id 1.5 is not an integer"),
    (parse_instance, 'digraph 1\nn 3\nmeta planted_witness {"branch":[0,1],'
     '"paths":[[0,1,[0,2.9,1]]]}\n', 3, "malformed witness JSON: vertex id 2.9 is not an integer"),
    # the writer emits JSON integers only: a string or a boolean was once
    # read as ids ("012" as 0, 1, 2; true as 1), and Infinity escaped as an
    # OverflowError
    (parse_instance, 'digraph 1\nn 3\nmeta planted_witness {"branch":"01","paths":[[0,1,"012"]]}\n',
     3, "malformed witness JSON: expected an array of integer vertex ids, got '01'"),
    (parse_instance, 'digraph 1\nn 3\nmeta planted_witness {"branch":[0,1],'
     '"paths":[[0,1,"012"]]}\n', 3,
     "malformed witness JSON: expected an array of integer vertex ids, got '012'"),
    (parse_instance, 'digraph 1\nn 3\nmeta planted_witness {"branch":[0,1],"paths":["012"]}\n', 3,
     "malformed witness JSON: expected an array of integer vertex ids, got ['0', '1']"),
    (parse_instance, 'digraph 1\nn 3\nmeta planted_witness {"branch":[" 1"],"paths":[]}\n', 3,
     "malformed witness JSON: expected an array of integer vertex ids, got [' 1']"),
    (parse_instance, 'digraph 1\nn 3\nmeta planted_witness {"branch":[true,false],"paths":[]}\n', 3,
     "malformed witness JSON: expected an array of integer vertex ids, got [True, False]"),
    (parse_instance, 'digraph 1\nn 3\nmeta planted_witness {"branch":[0,1],'
     '"paths":[[false,true,[0,1]]]}\n', 3,
     "malformed witness JSON: expected an array of integer vertex ids, got [False, True]"),
    (parse_instance, 'digraph 1\nn 3\nmeta planted_witness {"branch":[0,Infinity],'
     '"paths":[]}\n', 3, "malformed witness JSON: vertex id inf is not an integer"),
    (parse_instance, "digraph 1\nn 2\n# again\nn 3\n", 4, "duplicate vertex count"),
    (parse_instance, "digraph 1\nn 2 3\n", 2, "expected: n <count>"),
    (parse_instance, "digraph 1\nn 2\nn 2 3\n", 3, "duplicate vertex count"),
    (parse_instance, "digraph 1\na 0 1 0 0\nn 2\n", 2, "arc before vertex count"),
    (parse_instance, "digraph 1\nn 2\na 0 1 0\n", 3, "expected: a <tail> <head> <z1> <z2>"),
    (parse_instance, "digraph 1\nn 2\nmeta family\n", 3, "expected: meta <key> <value>"),
    (parse_instance, "digraph 1\nn 2\nmeta colour red\n", 3, "unknown metadata key 'colour'"),
    (parse_instance, "digraph 1\nn 2\nb 0 1\n", 3, "unknown record 'b'"),
    (parse_instance, "digraph 1\nmeta family x\n\n", 2, "missing vertex count"),
    (parse_instance, "a 0 1 0 0\na 1 0 0 0\n", 1,
     "expected header 'digraph' <version>, got 'a 0 1 0 0'"),
    (parse_instance, "digraph 1\na 0 1 0 0\na 1 0 0 0\nn 2\n", 2, "arc before vertex count"),
    (parse_instance, _k46_file(_K46[:1024] + ["a 0 1 0 0"] + _K46[1025:]), 1027,
     "duplicate arc (0, 1)"),
    (parse_instance, _k46_file(_K46[:1023] + ["a 0 1 0 0"] + _K46[1024:]), 1026,
     "duplicate arc (0, 1)"),
    (parse_instance, _k46_file(_K46[:500] + ["# a comment", ""] + _K46[500:700] + ["a 0 1 0 0"]
                               + _K46[701:]), 705, "duplicate arc (0, 1)"),
    (parse_instance, _k46_file(_K46[:600] + ["a  0 1\t1 0 "] + _K46[600:]), 603,
     "duplicate arc (0, 1)"),
    (parse_instance, _k46_file(_K46[:300] + ["a 6 46 1 0"] + _K46[301:]), 303,
     "arc (6, 46) uses an unknown vertex"),
    (parse_pattern, "\n# nothing\n", 0, "empty pattern file"),
    (parse_pattern, "pattern 1\nn\n", 2, "expected: n <count>"),
    (parse_pattern, "pattern 1\nn 2\nn 3\n", 3, "duplicate vertex count"),
    (parse_pattern, "pattern 1\nn 2\nn 2 3\n", 3, "duplicate vertex count"),
    (parse_pattern, "pattern 1\nn x\n", 2, "vertex count must be an integer, got 'x'"),
    (parse_pattern, "pattern 1\nn 2\ne 0 1 1 1 0\n", 3,
     "expected: e <tail> <head> <a> <b> <r> <q>"),
    (parse_pattern, "pattern 1\nn 2\na 0 1 1 1 0 2\n", 3, "unknown record 'a'"),
    (parse_pattern, "pattern 1\ne 0 1 1 1 0 2\n", 2, "missing vertex count"),
    (parse_witness, "", 0, "empty witness file"),
    (parse_witness, "witness 1\nbranch 0\n", 2,
     "expected: branch <pattern vertex> <digraph vertex>"),
    (parse_witness, "witness 1\nbranch 0 3\nbranch 0 4\n", 3, "duplicate branch record for 0"),
    (parse_witness, "witness 1\npath 0 1 3 4\npath 0 1 3 5 4\n", 3,
     "duplicate path record for (0, 1)"),
    (parse_witness, "witness 1\npath 0 1 3 5 3\n", 2, "path vertices must be pairwise distinct"),
    (parse_witness, "witness 1\nbranch 0 3\nedge 0 1\n", 3, "unknown record 'edge'"),
], ids=["instance-witness-json", "instance-witness-fractional-branch",
        "instance-witness-fractional-end", "instance-witness-fractional-path",
        "instance-witness-string-branch", "instance-witness-string-path",
        "instance-witness-string-entry", "instance-witness-padded-id",
        "instance-witness-bool-branch", "instance-witness-bool-ends", "instance-witness-infinity",
        "instance-duplicate-count", "instance-count-fields", "instance-duplicate-before-fields",
        "instance-arc-before-count", "instance-arc-fields", "instance-meta-fields", "instance-meta-key",
        "instance-unknown-record", "instance-missing-count", "instance-arc-run-before-header",
        "instance-arc-run-before-count", "instance-run-first-line", "instance-run-last-line",
        "instance-mid-run-after-comment-and-blank", "instance-lone-line-between-runs",
        "instance-unknown-vertex-in-run", "pattern-empty",
        "pattern-count-fields", "pattern-duplicate-count", "pattern-duplicate-before-fields",
        "pattern-count-integer", "pattern-arc-fields", "pattern-unknown-record",
        "pattern-missing-count", "witness-empty", "witness-branch-fields",
        "witness-duplicate-branch", "witness-duplicate-path", "witness-repeated-vertex",
        "witness-unknown-record"])
def test_each_parse_error_site_names_its_line_and_message(parse, text, line_no, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line_no == line_no
    assert str(info.value) == f"line {line_no}: {message}"


def test_round_trip_random_instances():
    for seed in range(100):
        inst = gen_random(7, 0.3, 0.5, 0.3, seed=seed)
        text = emit_instance(inst)
        assert emit_instance(parse_instance(text)) == text


@settings(max_examples=300, deadline=None)
@given(sparse_or_dense_digraphs(), st.data(),
       st.sampled_from(("as drawn", "induced", "ranked")),
       st.sampled_from((None, "random", "", " x", "x ", "a b", "x\ny")),
       st.none() | st.integers(0, 30))
def test_emit_instance_writes_only_what_parse_instance_reads_back(D, data, form, family, mu):
    """Scattered identifiers and induced subsets cannot be written, and nor
    can a family the reader would not take back as written; anything else
    reads back to the same digraph and metadata."""
    if form == "induced":
        D = D.induced(data.draw(st.sets(st.sampled_from(D.vertices))) if D.vertices else ())
    elif form == "ranked":
        rank = {v: i for i, v in enumerate(D.vertices)}.__getitem__
        D = LabeledDigraph.on_range(D.n, *([tuple(map(rank, a)) for a in arcs]
                                           for arcs in (D.arcs, D.z1, D.z2)))
    inst = Instance(D, family=family, mu_analytic=mu)
    if D.vertices != tuple(range(D.n)) or family in ("", " x", "x ", "x\ny"):
        with pytest.raises(ValueError):
            emit_instance(inst)
        return
    back = parse_instance(emit_instance(inst))
    assert (back.digraph, back.family, back.mu_analytic) == (D, family, mu)


def test_emit_instance_names_the_broken_rule():
    with pytest.raises(ValueError, match=r"^instance vertices must be 0\.\.1 to be written$"):
        emit_instance(Instance(LabeledDigraph([3, 7], [(3, 7), (7, 3)])))
    with pytest.raises(ValueError, match=r"^family 'x\\ny' is not one nonempty line"):
        emit_instance(Instance(LabeledDigraph.on_range(2), family="x\ny"))


@pytest.mark.parametrize("mu, error, message", [
    (2.5, TypeError, "mu_analytic must be an int"),
    (True, TypeError, "mu_analytic must be an int"),
    (-3, ValueError, "mu_analytic must be nonnegative, got -3"),
], ids=["fraction", "bool", "negative"])
def test_emit_instance_refuses_a_mu_analytic_that_parse_instance_refuses(mu, error, message):
    """The writer applies the count rule to ``mu_analytic`` before making any
    text, and the reader refuses the line the writer would have made."""
    with pytest.raises(error) as info:
        emit_instance(Instance(LabeledDigraph.on_range(2), mu_analytic=mu))
    assert str(info.value) == message
    with pytest.raises(ParseError, match=r"^line 3: mu_analytic must be (an integer|nonneg)"):
        parse_instance(f"digraph 1\nn 2\nmeta mu_analytic {mu}\n")
    assert parse_instance("digraph 1\nn 2\nmeta mu_analytic 0\n").mu_analytic == 0


def test_round_trip_metadata():
    inst = gen_bioriented_clique(4)
    text = emit_instance(inst)
    assert "meta family bioriented_clique" in text
    assert "meta mu_analytic 4" in text
    back = parse_instance(text)
    assert back.family == "bioriented_clique" and back.mu_analytic == 4
    assert emit_instance(back) == text


def test_round_trip_planted_witness():
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    inst = gen_planted(pattern, extra_vertices=2, extra_arcs=5, seed=4)
    text = emit_instance(inst)
    back = parse_instance(text)
    assert back.planted_witness == inst.planted_witness
    assert emit_instance(back) == text


def test_pattern_round_trip():
    pattern = SubdivisionPattern(3, (PatternArc(0, 1, 1, 1, 1, 2),
                                     PatternArc(2, 1, 2, 1, 4, 3)))
    text = emit_pattern(pattern)
    back = parse_pattern(text)
    assert back == pattern
    assert emit_pattern(back) == text


def test_pattern_normalizes_residues():
    # q maps to 0 when used as the zero representative
    p = parse_pattern("pattern 1\nn 2\ne 0 1 1 1 2 2\n")
    assert p.arcs[0].r == 0


def test_pattern_rejects_bad_tuples():
    with pytest.raises(ParseError):
        parse_pattern("pattern 1\nn 2\ne 0 1 2 1 0 4\n")  # gcd(2, 4) != 1
    with pytest.raises(ParseError):
        parse_pattern("pattern 1\nn 2\ne 0 1 1 1 0 1\n")  # q < 2
    with pytest.raises(ParseError):
        parse_pattern("pattern 1\nn 1\ne 0 1 1 1 0 2\n")  # head out of range


def test_pattern_rejects_duplicate_vertex_count():
    with pytest.raises(ParseError) as info:
        parse_pattern("pattern 1\nn 2\nn 3\ne 0 1 1 1 0 2\n")
    assert info.value.line_no == 3


@pytest.mark.parametrize("text, line_no, message", [
    ("pattern 1\nn 2\ne 0 5 1 1 0 2\ne 0 1 1 1 0 2\n", 3,
     "pattern arc (0, 5) uses an unknown vertex"),
    ("pattern 1\nn 3\ne 0 1 1 1 0 2\ne 0 1 1 1 1 2\ne 1 2 1 1 0 2\n", 4,
     "duplicate pattern arc (0, 1)"),
    ("pattern 1\nn -1\ne 0 1 1 1 0 2\n", 2, "vertex count must be nonnegative, got -1"),
    ("pattern 1\ne 0 1 1 1 0 2\ne 1 3 1 1 0 2\nn 3\n", 3,
     "pattern arc (1, 3) uses an unknown vertex"),
], ids=["unknown-vertex", "duplicate-arc", "negative-count", "arc-before-count"])
def test_pattern_errors_name_the_record_line(text, line_no, message):
    with pytest.raises(ParseError) as info:
        parse_pattern(text)
    assert info.value.line_no == line_no
    assert str(info.value) == f"line {line_no}: {message}"


def test_pattern_arc_records_may_precede_the_vertex_count():
    assert parse_pattern("pattern 1\ne 1 0 1 1 1 2\nn 2\n") == \
        SubdivisionPattern(2, (PatternArc(1, 0, 1, 1, 1, 2),))


def test_witness_round_trip():
    w = SubdivisionWitness((4, 7), {(0, 1): DirectedPath((4, 2, 7))})
    text = emit_witness(w)
    back = parse_witness(text)
    assert back == w
    assert emit_witness(back) == text


def test_witness_rejects_gaps():
    with pytest.raises(ParseError):
        parse_witness("witness 1\nbranch 0 3\nbranch 2 4\n")
    with pytest.raises(ParseError):
        parse_witness("witness 1\nbranch 0 3\npath 0 1 3\n")  # too few fields


def test_dot_export_styles_and_witness_overlay():
    pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
    inst = gen_planted(pattern, extra_vertices=1, extra_arcs=3, seed=2)
    dot = instance_to_dot(inst, witness=inst.planted_witness)
    assert dot.startswith("digraph D {")
    assert "doublecircle" in dot
    assert "crimson" in dot or "gray60" in dot
    plain = instance_to_dot(Instance(digon(z1=[(0, 1)], z2=[(0, 1)])))
    assert "purple" in plain


DOT_EACH_CLASS = """digraph D {
  0 [shape=doublecircle];
  1;
  2 [shape=doublecircle];
  3;
  0 -> 1 [color="crimson", penwidth=2.4, arrowsize=1.2, fillcolor="darkorange", style="bold"];
  0 -> 2 [color="gray60"];
  1 -> 2 [color="royalblue", penwidth=2.4, arrowsize=1.2, fillcolor="darkorange", style="bold"];
  2 -> 3 [color="purple", penwidth=2.4, arrowsize=1.2, fillcolor="forestgreen", style="bold"];
  3 -> 0 [color="gray60", penwidth=2.4, arrowsize=1.2, fillcolor="forestgreen", style="bold"];
}
"""


def test_dot_export_is_byte_exact_on_every_arc_class():
    """Arcs in z1 only, z2 only, both and neither, two witness paths in
    two palette colours, and one unlabeled arc off the witness."""
    D = digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
                z1=[(0, 1), (2, 3)], z2=[(1, 2), (2, 3)])
    w = SubdivisionWitness((0, 2), {(0, 1): DirectedPath((0, 1, 2)),
                                    (1, 0): DirectedPath((2, 3, 0))})
    assert instance_to_dot(Instance(D), witness=w) == DOT_EACH_CLASS


def test_write_text_atomic(tmp_path):
    target = tmp_path / "out.txt"
    write_text_atomic(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    write_text_atomic(str(target), "replaced\n")
    assert target.read_text() == "replaced\n"
    assert list(tmp_path.iterdir()) == [target]


def test_write_text_atomic_modes(tmp_path):
    umask = os.umask(0o022)
    try:
        fresh = tmp_path / "fresh.txt"
        write_text_atomic(str(fresh), "new\n")
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
        os.umask(0o077)
        kept = tmp_path / "kept.txt"
        kept.write_text("old\n")
        os.chmod(kept, 0o640)
        write_text_atomic(str(kept), "replaced\n")
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert kept.read_text() == "replaced\n"
    finally:
        os.umask(umask)


def test_write_text_atomic_failure_leaves_the_target(tmp_path):
    """A write that fails raises, leaves the target's bytes and mode as
    they were, and leaves no temp file behind."""
    target = tmp_path / "kept.txt"
    target.write_text("old\n")
    os.chmod(target, 0o640)
    with pytest.raises(TypeError):
        write_text_atomic(str(target), b"not text\n")
    assert target.read_bytes() == b"old\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert list(tmp_path.iterdir()) == [target]


WRITE_UNDER_C_LOCALE = """
import codecs, locale, sys
from dichromate import Instance, LabeledDigraph, emit_instance, write_text_atomic
print(codecs.lookup(locale.getpreferredencoding(False)).name)
write_text_atomic(sys.argv[1], emit_instance(Instance(LabeledDigraph.on_range(2, [(0, 1)]),
                                                      family="clique-\\u00e9")))
"""


def test_write_text_atomic_writes_utf8_under_an_ascii_locale(tmp_path):
    """The formats are UTF-8 whatever the locale: under the C locale, with
    neither UTF-8 mode nor locale coercion, a family with a non-ASCII
    letter is written as UTF-8 and reads back."""
    env = dict(os.environ, PYTHONPATH=str(SRC), LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0")
    target = tmp_path / "inst.txt"
    proc = subprocess.run([sys.executable, "-c", WRITE_UNDER_C_LOCALE, str(target)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ascii\n", "")
    text = emit_instance(Instance(digraph(2, [(0, 1)]), family="clique-\u00e9"))
    assert target.read_bytes() == text.encode("utf-8")
    assert parse_instance(target.read_bytes().decode("utf-8")).family == "clique-\u00e9"
