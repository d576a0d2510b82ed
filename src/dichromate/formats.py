"""Line-oriented text formats for instances, patterns, and witnesses, plus
DOT export.

All three formats are UTF-8 text, one record per line, with a fixed header
naming the record kind and the format version (pinned at 1).  Canonical form
sorts arcs and records and normalizes flags, so emit(parse(text)) is
byte-identical for canonical files.  Blank lines and '#' comments are
accepted on input and dropped on output.  A line ends wherever
``str.splitlines`` ends one; tokens are split on any run of whitespace, as
``str.split`` splits them, and an integer may be spelled any way ``int``
reads it (leading zeros, a sign, '_' between digits, non-ASCII digits);
a flag is exactly 0 or 1.  The parsers check each line's tokens; only the
checks of the digraph or pattern built judge the records' values (a
negative count, loops, repeats, unknown vertices), and the rule names the
faulty record by its index: the arc rule's error carries the index of the
first faulty arc in file order, and an error without one is the count's,
raised at the ``n`` record.  The instance reader keeps no line per arc: it
keeps the first line and first arc index of each arc run or lone arc line,
and finds a fault's run by bisection and its line by the offset into it.

The instance reader streams the text through one compiled pattern, which
takes 2 to 1024 consecutive canonical arc lines as one run and converts
their tokens in bulk; every other line goes through the general line code.
Either way a file reads to the same instance, or fails with the same
message on the same line.

Instance files::

    digraph 1
    n 5
    a <tail> <head> <z1 0/1> <z2 0/1>
    meta family <token: one nonempty line, no surrounding whitespace>
    meta mu_analytic <int, at least 0>
    meta planted_witness <one-line JSON>

Pattern files::

    pattern 1
    n <vertex count>
    e <tail> <head> <a> <b> <r> <q>

Witness files::

    witness 1
    branch <pattern vertex> <digraph vertex>
    path <pattern tail> <pattern head> <v0> <v1> ...
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import stat
from bisect import bisect_right
from itertools import compress

from .digraph import DirectedPath, LabeledDigraph, _check_count, _IntPairs, _json_ids, _Record
from .errors import ParseError
from .subdivision import PatternArc, SubdivisionPattern, SubdivisionWitness

FORMAT_VERSION = 1

# str.splitlines() ends a line at "\r\n" and at each of these.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# One match per line of an instance file, as str.splitlines() splits it,
# in group 2; except that a run of 2 to 1024 canonical arc lines ("a" and
# four tokens one space apart, the ends of at most 18 ASCII digits, well
# inside int()'s digit limit, the flags 0 or 1, each line ended by "\n") is
# one match, in group 1.  A lone arc line reads faster as a line.  The
# text's end may add one empty line.
_INSTANCE_LINES = re.compile(r"((?:a [0-9]{1,18} [0-9]{1,18} [01] [01]\n){2,1024})"
                             rf"|([^{_LINE_BREAKS}]*)(?:\r\n|[{_LINE_BREAKS}])?")
# An arc's z1 and z2 flags as written, by [arc in z1] + 2 * [arc in z2].
_FLAGS = ("0 0", "1 0", "0 1", "1 1")


class Instance(_Record):
    """A labeled digraph plus optional generator-certified metadata.

    ``mu_analytic`` may only be emitted by generators whose family carries a
    proof obligation (currently the fully z1-labeled bioriented cliques);
    ``planted_witness`` is the subdivision planted by ``gen_planted``.
    """

    __slots__ = ("digraph", "family", "mu_analytic", "planted_witness")

    def __init__(self, digraph: LabeledDigraph, family: str | None = None,
                 mu_analytic: int | None = None,
                 planted_witness: SubdivisionWitness | None = None):
        _Record.__init__(self, digraph, family, mu_analytic, planted_witness)


def _significant_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


def _int_field(line_no: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None


def _flag_field(line_no: int, token: str, what: str) -> bool:
    if token not in ("0", "1"):
        raise ParseError(line_no, f"{what} must be 0 or 1, got {token!r}")
    return token == "1"


def _vertex_count(line_no: int, parts: list[str], n: int | None) -> int:
    """The count of the ``n`` record ``parts``; ``n`` is the count read before, if any."""
    if n is not None:
        raise ParseError(line_no, "duplicate vertex count")
    if len(parts) != 2:
        raise ParseError(line_no, "expected: n <count>")
    return _int_field(line_no, parts[1], "vertex count")


def _check_header(line_no: int, line: str, kind: str) -> None:
    parts = line.split()
    if len(parts) != 2 or parts[0] != kind:
        raise ParseError(line_no, f"expected header {kind!r} <version>, got {line!r}")
    version = _int_field(line_no, parts[1], "format version")
    if version != FORMAT_VERSION:
        raise ParseError(line_no, f"unsupported format version {version}")


def _witness_to_json(w: SubdivisionWitness) -> str:
    payload = {
        "branch": list(w.branch),
        "paths": [[t, h, list(w.paths[(t, h)].vertices)] for t, h in sorted(w.paths)],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object's (key, value) pairs as a dict; ValueError at a
    repeated key, which ``json`` would let the last value win."""
    obj: dict[str, object] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _witness_from_json(line_no: int, blob: str) -> SubdivisionWitness:
    """The witness of a ``meta planted_witness`` value.  ParseError at
    ``line_no`` for anything the writer does not emit: a repeated key or
    path record, or JSON nested too deep to read (RecursionError)."""
    try:
        payload = json.loads(blob, object_pairs_hook=_unique_keys)
        branch = _json_ids(payload["branch"])
        paths: dict[tuple[int, int], DirectedPath] = {}
        for t, h, seq in payload["paths"]:
            key = _json_ids([t, h])
            if key in paths:
                raise ValueError(f"duplicate path record for {key}")
            paths[key] = DirectedPath(_json_ids(seq))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ParseError(line_no, f"malformed witness JSON: {exc}") from None
    return SubdivisionWitness(branch, paths)


def parse_instance(text: str) -> Instance:
    n: int | None = None
    arcs = _IntPairs()
    record_lines: list[int] = []  # the n record's, then each arc run's or lone arc line's first
    firsts = [-1]  # the index of each entry's first arc (-1: the n record)
    z1: list[tuple[int, int]] = []
    z2: list[tuple[int, int]] = []
    family: str | None = None
    mu_analytic: int | None = None
    witness: SubdivisionWitness | None = None
    meta_keys: set[str] = set()
    line_no = last = 0  # the line read last, and the last significant one
    for run, raw in map(re.Match.groups, _INSTANCE_LINES.finditer(text)):
        if run is not None:
            if n is None:
                # the run's first line fails below: it is not the header,
                # or it is an arc before the vertex count
                raw = run[:run.index("\n")]
            else:
                tokens = run.split()
                new = list(zip(map(int, tokens[1::5]), map(int, tokens[2::5])))
                record_lines.append(line_no + 1)
                firsts.append(len(arcs))
                arcs += new
                z1 += compress(new, map("1".__eq__, tokens[3::5]))
                z2 += compress(new, map("1".__eq__, tokens[4::5]))
                line_no = last = line_no + len(new)
                continue
        line_no += 1
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not last:
            last = line_no
            _check_header(line_no, line, kind="digraph")
            continue
        last = line_no
        parts = line.split()
        kind = parts[0]
        if kind == "n":
            n = _vertex_count(line_no, parts, n)
            record_lines.append(line_no)
        elif kind == "a":
            if n is None:
                raise ParseError(line_no, "arc before vertex count")
            if len(parts) != 5:
                raise ParseError(line_no, "expected: a <tail> <head> <z1> <z2>")
            u = _int_field(line_no, parts[1], "tail")
            v = _int_field(line_no, parts[2], "head")
            record_lines.append(line_no)
            firsts.append(len(arcs))
            arcs.append((u, v))
            if _flag_field(line_no, parts[3], "z1 flag"):
                z1.append((u, v))
            if _flag_field(line_no, parts[4], "z2 flag"):
                z2.append((u, v))
        elif kind == "meta":
            if len(parts) < 3:
                raise ParseError(line_no, "expected: meta <key> <value>")
            key = parts[1]
            if key in meta_keys:
                raise ParseError(line_no, f"duplicate metadata key {key!r}")
            meta_keys.add(key)
            value = line.split(None, 2)[2]
            if key == "family":
                family = value
            elif key == "mu_analytic":
                mu_analytic = _int_field(line_no, value, "mu_analytic")
                if mu_analytic < 0:
                    raise ParseError(line_no, f"mu_analytic must be nonnegative, got {mu_analytic}")
            elif key == "planted_witness":
                witness = _witness_from_json(line_no, value)
            else:
                raise ParseError(line_no, f"unknown metadata key {key!r}")
        else:
            raise ParseError(line_no, f"unknown record {kind!r}")
    if not last:
        raise ParseError(0, "empty instance file")
    if n is None:
        raise ParseError(last, "missing vertex count")
    try:
        D = LabeledDigraph.on_range(n, arcs, z1, z2)
    except ValueError as exc:  # the count's (no index) or an arc's
        index = getattr(exc, "index", -1)
        entry = bisect_right(firsts, index) - 1
        raise ParseError(record_lines[entry] + index - firsts[entry], str(exc)) from None
    return Instance(D, family=family, mu_analytic=mu_analytic, planted_witness=witness)


def emit_instance(instance: Instance) -> str:
    """The instance's canonical text.  ValueError, before any text is made,
    unless D's vertices are 0..n-1 and the family, if any, is a token the
    reader takes back as written: one nonempty line, no outer whitespace;
    then the count rule on ``mu_analytic``, if any: an int of at least 0."""
    D, family = instance.digraph, instance.family
    if D.vertices and (D.vertices[0], D.vertices[-1]) != (0, D.n - 1):
        raise ValueError(f"instance vertices must be 0..{D.n - 1} to be written")
    if family is not None and (family.splitlines() != [family] or family != family.strip()):
        raise ValueError(f"family {family!r} is not one nonempty line without outer whitespace")
    if instance.mu_analytic is not None:
        _check_count(instance.mu_analytic, "mu_analytic", 0)
    out = [f"digraph {FORMAT_VERSION}", f"n {D.n}"]
    names = {v: str(v) for v in D.vertices}
    z1, z2 = D.z1, D.z2
    out += [f"a {names[a[0]]} {names[a[1]]} {_FLAGS[(a in z1) + 2 * (a in z2)]}" for a in D.arcs]
    if family is not None:
        out.append(f"meta family {family}")
    if instance.mu_analytic is not None:
        out.append(f"meta mu_analytic {instance.mu_analytic}")
    if instance.planted_witness is not None:
        out.append(f"meta planted_witness {_witness_to_json(instance.planted_witness)}")
    return "\n".join(out) + "\n"


def parse_pattern(text: str) -> SubdivisionPattern:
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError(0, "empty pattern file")
    _check_header(*lines[0], kind="pattern")
    n: int | None = None
    arcs: list[PatternArc] = []
    record_lines: list[int] = []  # the n record's line, then each e record's
    for line_no, line in lines[1:]:
        parts = line.split()
        if parts[0] == "n":
            n = _vertex_count(line_no, parts, n)
            record_lines.insert(0, line_no)
        elif parts[0] == "e":
            if len(parts) != 7:
                raise ParseError(line_no, "expected: e <tail> <head> <a> <b> <r> <q>")
            vals = [_int_field(line_no, p, "pattern arc field") for p in parts[1:]]
            try:
                arcs.append(PatternArc(*vals))
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
            record_lines.append(line_no)
        else:
            raise ParseError(line_no, f"unknown record {parts[0]!r}")
    if n is None:
        raise ParseError(lines[-1][0], "missing vertex count")
    try:
        return SubdivisionPattern(n, tuple(arcs))
    except ValueError as exc:  # the count's (no index) or an arc's
        raise ParseError(record_lines[getattr(exc, "index", -1) + 1], str(exc)) from None


def emit_pattern(pattern: SubdivisionPattern) -> str:
    out = [f"pattern {FORMAT_VERSION}", f"n {pattern.num_vertices}"]
    for e in pattern.arcs:
        out.append(f"e {e.tail} {e.head} {e.a} {e.b} {e.r} {e.q}")
    return "\n".join(out) + "\n"


def parse_witness(text: str) -> SubdivisionWitness:
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError(0, "empty witness file")
    _check_header(*lines[0], kind="witness")
    branch: dict[int, int] = {}
    paths: dict[tuple[int, int], DirectedPath] = {}
    for line_no, line in lines[1:]:
        parts = line.split()
        if parts[0] == "branch":
            if len(parts) != 3:
                raise ParseError(line_no, "expected: branch <pattern vertex> <digraph vertex>")
            p = _int_field(line_no, parts[1], "pattern vertex")
            v = _int_field(line_no, parts[2], "digraph vertex")
            if p in branch:
                raise ParseError(line_no, f"duplicate branch record for {p}")
            branch[p] = v
        elif parts[0] == "path":
            if len(parts) < 5:
                raise ParseError(line_no, "expected: path <tail> <head> <v0> <v1> ...")
            t = _int_field(line_no, parts[1], "pattern tail")
            h = _int_field(line_no, parts[2], "pattern head")
            if (t, h) in paths:
                raise ParseError(line_no, f"duplicate path record for ({t}, {h})")
            seq = tuple(_int_field(line_no, p, "path vertex") for p in parts[3:])
            try:
                paths[(t, h)] = DirectedPath(seq)
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
        else:
            raise ParseError(line_no, f"unknown record {parts[0]!r}")
    if sorted(branch) != list(range(len(branch))):
        raise ParseError(lines[-1][0], "branch records must cover 0..k-1")
    return SubdivisionWitness(tuple(branch[i] for i in range(len(branch))), paths)


def emit_witness(witness: SubdivisionWitness) -> str:
    out = [f"witness {FORMAT_VERSION}"]
    for p, v in enumerate(witness.branch):
        out.append(f"branch {p} {v}")
    for (t, h) in sorted(witness.paths):
        seq = " ".join(str(v) for v in witness.paths[(t, h)].vertices)
        out.append(f"path {t} {h} {seq}")
    return "\n".join(out) + "\n"


# indexed like _FLAGS: (arc in z1) + 2 * (arc in z2)
_ARC_COLORS = ("gray60", "crimson", "royalblue", "purple")
_WITNESS_PALETTE = ("darkorange", "forestgreen", "deeppink", "teal",
                    "goldenrod", "slateblue", "firebrick", "darkcyan")


def instance_to_dot(instance: Instance, witness: SubdivisionWitness | None = None) -> str:
    """DOT rendering: z1-only arcs crimson, z2-only royal blue, arcs in both
    classes purple, unlabeled arcs gray; witness paths get one palette color
    per pattern arc and branch vertices a double circle."""
    D = instance.digraph
    path_color: dict[tuple[int, int], str] = {}
    branch: set[int] = set()
    if witness is not None:
        for i, key in enumerate(sorted(witness.paths)):
            color = _WITNESS_PALETTE[i % len(_WITNESS_PALETTE)]
            for arc in witness.paths[key].arcs():
                path_color[arc] = color
        branch = set(witness.branch)
    out = ["digraph D {"]
    for v in D.vertices:
        shape = " [shape=doublecircle]" if v in branch else ""
        out.append(f"  {v}{shape};")
    for a in D.arcs:
        attrs = [f'color="{_ARC_COLORS[(a in D.z1) + 2 * (a in D.z2)]}"']
        if a in path_color:
            attrs += ['penwidth=2.4', 'arrowsize=1.2',
                      f'fillcolor="{path_color[a]}"', 'style="bold"']
        out.append(f"  {a[0]} -> {a[1]} [{', '.join(attrs)}];")
    out.append("}")
    return "\n".join(out) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory plus rename.  A new file
    gets mode 0o666 minus the umask, as from ``open()``; a replaced file
    keeps its mode."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
