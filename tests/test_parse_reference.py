"""The instance reader against the line-by-line reference in bruteforce.py:
on emitted instances with their spelling and records disturbed, both give
an equal Instance, or both raise a ParseError on the same line with the
same message."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import parse_instance_reference
from conftest import labeled_digraphs
from dichromate import Instance, ParseError, emit_instance, gen_bioriented_clique, parse_instance

ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
NUMBER_SPELLINGS = {
    "leading zeros": lambda t: "00" + t,
    "plus sign": lambda t: "+" + t,
    "underscore": lambda t: t[0] + "_" + t[1:] if len(t) > 1 else "0_" + t,
    "minus sign": lambda t: "-" + t,
    "arabic-indic digits": lambda t: t.translate(ARABIC_INDIC),
    "fullwidth digits": lambda t: t.translate(FULLWIDTH),
    "past int()'s digit limit": lambda t: "1" + "0" * 5000,
}
SEPARATORS = [" ", "  ", "\t", " \t ", " ", "\x1f"]
BLANKS = ["", " ", "\t", "  \t", "　"]
# str.splitlines() ends a line at each of these
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " "]


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return exc.line_no, str(exc)


def _index(draw, lines, first=0):
    return draw(st.integers(min(first, len(lines)), len(lines)), label="position")


def _record(draw, lines, kinds, min_tokens=1):
    """Index of a line of at least ``min_tokens`` tokens whose first is in
    ``kinds``, or None."""
    found = [i for i, line in enumerate(lines)
             if len(line.split()) >= min_tokens and line.split()[0] in kinds]
    return draw(st.sampled_from(found), label="record") if found else None


def blank_line(draw, lines, n):
    lines.insert(_index(draw, lines), draw(st.sampled_from(BLANKS)))


def comment(draw, lines, n):
    text = draw(st.sampled_from(["#", "# note", "#a 0 1 0 0", "\t# n 3"]))
    lines.insert(_index(draw, lines), text)


def respace(draw, lines, n):
    """Tabs, runs of spaces and other blanks between and around tokens."""
    i = _record(draw, lines, {"digraph", "n", "a", "meta"})
    if i is not None:
        sep = draw(st.sampled_from(SEPARATORS))
        lines[i] = (draw(st.sampled_from(BLANKS)) + sep.join(lines[i].split())
                    + draw(st.sampled_from(BLANKS)))


def respell_number(draw, lines, n):
    i = _record(draw, lines, {"n", "a"}, min_tokens=2)
    if i is not None:
        parts = lines[i].split()
        j = draw(st.integers(1, len(parts) - 1))
        parts[j] = NUMBER_SPELLINGS[draw(st.sampled_from(sorted(NUMBER_SPELLINGS)))](parts[j])
        lines[i] = " ".join(parts)


def bad_flag(draw, lines, n):
    i = _record(draw, lines, {"a"}, min_tokens=5)
    if i is not None:
        parts = lines[i].split()
        parts[draw(st.sampled_from([3, 4]))] = draw(st.sampled_from(["2", "01", "00", "x", "-1"]))
        lines[i] = " ".join(parts)


def arc_before_count(draw, lines, n):
    lines.insert(1, "a 0 1 0 0")


def repeated_arc(draw, lines, n):
    i = _record(draw, lines, {"a"})
    if i is not None:
        lines.insert(_index(draw, lines, first=2), lines[i])


def loop(draw, lines, n):
    v = draw(st.integers(0, n))
    lines.insert(_index(draw, lines, first=2), f"a {v} {v} 1 0")


def unknown_vertex(draw, lines, n):
    u, v = draw(st.integers(0, n)), n + draw(st.integers(0, 3))
    if draw(st.booleans(), label="tail outside"):
        u, v = v, u
    lines.insert(_index(draw, lines, first=2), f"a {u} {v} 0 1")


def meta_line(draw, lines, n):
    text = draw(st.sampled_from(["meta family x", "meta mu_analytic 3", "meta colour red",
                                 "meta family", "meta mu_analytic three",
                                 'meta planted_witness {"branch":[0],"paths":[]}',
                                 'meta planted_witness {"branch":[0,1.5],"paths":[]}',
                                 'meta planted_witness {"branch":[0,true],"paths":[]}',
                                 'meta planted_witness {"branch":[0,Infinity],"paths":[]}',
                                 'meta planted_witness {"branch":[NaN],"paths":[]}',
                                 'meta planted_witness {"branch":[0],"paths":[[0,1,"01"]]}']))
    lines.insert(_index(draw, lines, first=2), text)


def other_record(draw, lines, n):
    text = draw(st.sampled_from(["n 3", "b 0 1", "a 0 1 1", "a 0 1 1 0 0", "digraph 1"]))
    lines.insert(_index(draw, lines), text)


def drop_line(draw, lines, n):
    if lines:
        del lines[_index(draw, lines[1:])]


MUTATIONS = [blank_line, comment, respace, respell_number, bad_flag, arc_before_count,
             repeated_arc, loop, unknown_vertex, meta_line, other_record, drop_line]


@st.composite
def instance_texts(draw):
    D = draw(labeled_digraphs(max_n=5))
    family = draw(st.sampled_from([None, "random", "bioriented_clique"]))
    mu = draw(st.sampled_from([None, 0, 3]))
    lines = emit_instance(Instance(D, family=family, mu_analytic=mu)).splitlines()
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), max_size=4)):
        mutate(draw, lines, D.n)
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=1, max_size=3))
    ends = [breaks[i % len(breaks)] for i in range(len(lines))]
    if ends and draw(st.booleans(), label="no last break"):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=600, deadline=None)
@given(instance_texts())
def test_the_reader_agrees_with_the_line_by_line_reference(text):
    assert outcome(parse_instance, text) == outcome(parse_instance_reference, text)


def test_canonical_files_round_trip_and_agree_with_the_reference():
    text = emit_instance(gen_bioriented_clique(9))
    assert emit_instance(parse_instance(text)) == text
    assert parse_instance(text) == parse_instance_reference(text)


K40 = emit_instance(gen_bioriented_clique(40)).splitlines()  # 1,560 arc lines


INSERTED = {"loop": "a 5 5 0 0", "repeat": "a 0 1 0 0", "unknown": "a 0 99 1 0",
            "flag": "a 1 2 1 2", "tab": "\ta 41 3 1 0", "trailing": "a 3 4 1 0 ",
            "comment": "# a 0 1 0 0", "blank": "", "meta": "meta family x",
            "fullwidth": "a ３ 4 1 0", "digit-limit": "a 1" + "0" * 5000 + " 4 1 0"}


@pytest.mark.parametrize("at", [3, 1025, 1026, 1027, 1500, len(K40) - 2, len(K40)])
@pytest.mark.parametrize("line", INSERTED.values(), ids=INSERTED.keys())
def test_long_runs_of_arc_lines_read_as_the_reference_reads_them(at, line):
    """A line inserted among the arc lines of a file longer than one run
    of the tokeniser, before, at and after the runs' edges."""
    text = "\n".join(K40[:at] + [line] + K40[at:]) + "\n"
    assert outcome(parse_instance, text) == outcome(parse_instance_reference, text)
