"""The contract of the library's 23 immutable records, read through their
public behaviour only, so it holds for any implementation of them: the
constructor's parameters (names, kinds and defaults), each argument
stored in its own field, AttributeError on
assigning or deleting an attribute, equality and hashing by class and
field values (identity for the five records documented so), the
``Name(field=value, ...)`` repr, copies, and each record's refusals and
normalisations.

The library builds its records without ``dataclasses``: no module of
``src/`` imports it, and importing the command line loads neither
``dataclasses`` nor ``inspect``, whose import costs each CLI run time
before any work."""

import ast
import copy
import inspect
import os
import pickle
import subprocess
import sys

import pytest

from conftest import SRC, bio_clique, digraph
from dichromate import (BfsTree, ComponentTrace, ConnectorSet, CyclePacking, DirectedCycle,
                        DirectedPath, GadgetSequences, Instance, LevelSplitResult, MuResult,
                        NestedSequence, PatternArc, ResidueQuery, ResidueUniversalSet,
                        SearchOutcome, SpecialSetResult, SubdivisionPattern, SubdivisionWitness,
                        UndirectedLabeledGraph, UndirectedPattern, UndirectedPatternEdge,
                        UndirectedWitness, VerificationReport, VertexPartition,
                        find_subdivision, find_subdivision_undirected)

REQUIRED = inspect.Parameter.empty
FRESH_DICT = "a new empty dict"  # the default of a witness's ``paths``
D = digraph(3, [(0, 1), (1, 2), (2, 0)])
TREE = BfsTree(0, "out", (frozenset({0}), frozenset({1})), {1: 0})
PATH = DirectedPath((0, 1))

# Each record's constructor parameters with their defaults, all positional
# or keyword, as the records stood when they were frozen dataclasses.
SIGNATURES = {
    DirectedPath: [("vertices", REQUIRED)],
    BfsTree: [("root", REQUIRED), ("direction", REQUIRED), ("levels", REQUIRED),
              ("parent", REQUIRED)],
    DirectedCycle: [("vertices", REQUIRED), ("z1_count", REQUIRED), ("z2_count", REQUIRED)],
    CyclePacking: [("requested", REQUIRED), ("cycles", REQUIRED)],
    PatternArc: [(name, REQUIRED) for name in ("tail", "head", "a", "b", "r", "q")],
    SubdivisionPattern: [("num_vertices", REQUIRED), ("arcs", REQUIRED)],
    SubdivisionWitness: [("branch", REQUIRED), ("paths", FRESH_DICT)],
    VerificationReport: [("ok", REQUIRED), ("failure", None), ("detail", "")],
    Instance: [("digraph", REQUIRED), ("family", None), ("mu_analytic", None),
               ("planted_witness", None)],
    VertexPartition: [("blocks", REQUIRED)],
    ComponentTrace: [(name, REQUIRED) for name in ("component", "attempts", "value", "clique")],
    MuResult: [(name, REQUIRED) for name in ("value", "certificate", "lower_bound_trace")],
    LevelSplitResult: [(name, REQUIRED) for name in (
        "level_index", "component", "mu_of_component", "provenance", "verified", "tree")],
    ConnectorSet: [(name, REQUIRED) for name in (
        "D", "host", "X", "x0", "x1", "entry_path", "in_tree", "X1", "out_tree", "mu_value",
        "provenance", "flags")],
    NestedSequence: [(name, REQUIRED) for name in (
        "D", "sets", "connectors", "provenance", "flags")],
    SpecialSetResult: [(name, REQUIRED) for name in (
        "x", "q", "U", "Y", "w", "path", "r", "s", "witness_first", "witness_second", "core",
        "provenance")],
    GadgetSequences: [(name, REQUIRED) for name in (
        "q", "host", "stages", "mu_trace", "provenance")],
    ResidueUniversalSet: [(name, REQUIRED) for name in (
        "D", "host", "q", "X", "x0", "entry_path", "in_tree", "gadgets", "exit_tree", "chosen",
        "side", "provenance", "flags")],
    ResidueQuery: [(name, REQUIRED) for name in ("u", "v", "a", "b", "q", "target")]
    + [("endpoints", frozenset()), ("forbidden", frozenset())],
    SearchOutcome: [("status", REQUIRED), ("witness", None), ("expansions", 0)],
    UndirectedPatternEdge: [(name, REQUIRED) for name in ("u", "v", "a", "b", "r", "q")],
    UndirectedPattern: [("num_vertices", REQUIRED), ("edges", REQUIRED)],
    UndirectedWitness: [("branch", REQUIRED), ("paths", FRESH_DICT)],
}
IDENTITY = {BfsTree, ConnectorSet, NestedSequence, ResidueUniversalSet, UndirectedWitness}
# The records whose constructor neither checks nor normalises an argument.
AS_GIVEN = [BfsTree, CyclePacking, Instance, ComponentTrace, MuResult, LevelSplitResult,
            ConnectorSet, NestedSequence, SpecialSetResult, GadgetSequences, ResidueUniversalSet,
            SearchOutcome, VerificationReport]


def _args(cls):
    """Valid constructor arguments for ``cls``, new objects on each call
    except the shared digraph, tree and path, which compare by identity."""
    return {
        DirectedPath: lambda: ((0, 1, 2),),
        BfsTree: lambda: (0, "out", (frozenset({0}), frozenset({1})), {1: 0}),
        DirectedCycle: lambda: ((0, 1, 2), 1, 0),
        CyclePacking: lambda: (2, (DirectedCycle((0, 1, 2), 1, 0),)),
        PatternArc: lambda: (0, 1, 1, 2, 1, 3),
        SubdivisionPattern: lambda: (2, (PatternArc(0, 1, 1, 1, 1, 3),)),
        SubdivisionWitness: lambda: ((0, 1), {(0, 1): DirectedPath((0, 1))}),
        VerificationReport: lambda: (False, "branch-map", "branch map is not injective"),
        Instance: lambda: (D, "cycle", 2, None),
        VertexPartition: lambda: ((frozenset({0}), frozenset({1, 2})),),
        ComponentTrace: lambda: (frozenset({0, 1, 2}), ((1, 1),), 1, (0,)),
        MuResult: lambda: (1, VertexPartition((frozenset({0, 1, 2}),)), ()),
        LevelSplitResult: lambda: (1, frozenset({1}), 0, "exact", True, TREE),
        ConnectorSet: lambda: (D, frozenset({0, 1, 2}), frozenset({1}), 0, 1, PATH, TREE,
                               frozenset({1}), TREE, 0, "exact", ()),
        NestedSequence: lambda: (D, (frozenset({0, 1, 2}),), (), "exact", ()),
        SpecialSetResult: lambda: (0, 2, frozenset({1}), frozenset({0, 1}), 1, PATH, 1, 0,
                                   PATH, PATH, frozenset({2}), "exact"),
        GadgetSequences: lambda: (2, frozenset({0, 1, 2}), (), (None,), "exact"),
        ResidueUniversalSet: lambda: (D, frozenset({0, 1, 2}), 2, frozenset({0, 1}), 0, PATH,
                                      TREE, None, TREE, (), "z1", "exact", ()),
        ResidueQuery: lambda: (0, 2, 1, 1, 3, 4, frozenset({1}), frozenset()),
        SearchOutcome: lambda: ("found", None, 7),
        UndirectedPatternEdge: lambda: (0, 1, 1, 1, 1, 2),
        UndirectedPattern: lambda: (2, (UndirectedPatternEdge(0, 1, 1, 1, 1, 2),)),
        UndirectedWitness: lambda: ((0, 1), {(0, 1): (0, 2, 1)}),
    }[cls]()


RECORDS = list(SIGNATURES)
ids = [cls.__name__ for cls in RECORDS]


def _fields(record):
    return [(name, getattr(record, name)) for name, _ in SIGNATURES[type(record)]]


def test_the_table_holds_the_23_records():
    assert len(RECORDS) == 23 and IDENTITY <= set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_the_constructor_takes_the_recorded_parameters(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.kind) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD) for name, _ in SIGNATURES[cls]]
    for p, (name, default) in zip(params, SIGNATURES[cls]):
        if default is FRESH_DICT:
            assert p.default is not REQUIRED
        else:
            assert p.default == default and type(p.default) is type(default), name


@pytest.mark.parametrize("cls", [c for c in RECORDS if c is not ResidueQuery],
                         ids=lambda c: c.__name__)
def test_each_argument_is_stored_in_its_own_field(cls):
    """The field values are the arguments, in order.  A residue query is
    left out: it adds its ends to ``endpoints``."""
    args = _args(cls)
    assert [value for _, value in _fields(cls(*args))] == list(args)


@pytest.mark.parametrize("cls", AS_GIVEN, ids=lambda c: c.__name__)
def test_a_record_without_checks_keeps_each_argument_object(cls):
    """One distinct object per parameter, so a swap of two fields that
    ``_args`` fills alike (``witness_first`` and ``witness_second``, or
    ``in_tree`` and ``out_tree``) shows too."""
    args = [object() for _ in SIGNATURES[cls]]
    record = cls(*args)
    assert all(getattr(record, name) is arg for (name, _), arg in zip(SIGNATURES[cls], args))


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_no_attribute_can_be_assigned_or_deleted(cls):
    record = cls(*_args(cls))
    before = _fields(record)
    for name, value in before + [("extra", 1)]:
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _fields(record) == before


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_equality_and_hash_follow_the_class_and_the_fields(cls):
    a, b = cls(*_args(cls)), cls(*_args(cls))
    assert a == a and not a != a
    if cls in IDENTITY:
        assert a != b and hash(a) == object.__hash__(a)
        return
    assert a == b and not a != b
    if cls is SubdivisionWitness:  # its paths are a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != _Lookalike(_fields(a)) and a != tuple(v for _, v in _fields(a))


class _Lookalike:
    """An object of another class with the same field values."""

    def __init__(self, fields):
        self.__dict__.update(fields)


def test_a_changed_field_breaks_equality():
    assert DirectedPath((0, 1)) != DirectedPath((1, 0))
    assert SearchOutcome("found", None, 7) != SearchOutcome("found", None, 8)
    assert PatternArc(0, 1, 1, 1, 1, 3) != PatternArc(0, 1, 1, 1, 2, 3)
    assert len({DirectedPath((0, 1)), DirectedPath((0, 1)), DirectedPath((1, 0))}) == 2


@pytest.mark.parametrize("cls", [c for c in RECORDS if c is not BfsTree], ids=lambda c: c.__name__)
def test_the_repr_names_each_field(cls):
    record = cls(*_args(cls))
    body = ", ".join(f"{name}={value!r}" for name, value in _fields(record))
    assert repr(record) == f"{cls.__qualname__}({body})"


def test_a_bfs_tree_repr_gives_its_size():
    assert repr(TREE) == "BfsTree(root=0, direction='out', n=2)"


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_copies_keep_the_fields(cls):
    """A shallow copy shares the fields, so an equality record equals it; a
    deep copy and a pickled copy rebuild them, shown by the repr."""
    record = cls(*_args(cls))
    dup = copy.copy(record)
    assert type(dup) is cls and _fields(dup) == _fields(record)
    assert (dup == record) is (cls not in IDENTITY)
    for dup in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(dup) is cls and repr(dup) == repr(record)


@pytest.mark.parametrize("cls", [SubdivisionWitness, UndirectedWitness], ids=lambda c: c.__name__)
def test_a_witness_defaults_to_a_new_empty_dict_of_paths(cls):
    a, b = cls((0, 1)), cls((0, 1))
    assert a.paths == {} and a.paths is not b.paths


def test_the_path_refusals():
    with pytest.raises(ValueError, match="empty vertex sequence"):
        DirectedPath(())
    with pytest.raises(ValueError, match="path vertices must be pairwise distinct"):
        DirectedPath((0, 1, 0))


def test_the_partition_refusals():
    with pytest.raises(ValueError, match="blocks must be nonempty"):
        VertexPartition((frozenset({0}), frozenset()))
    with pytest.raises(ValueError, match="blocks must be pairwise disjoint"):
        VertexPartition((frozenset({0, 1}), frozenset({1, 2})))


@pytest.mark.parametrize("cls", [PatternArc, UndirectedPatternEdge], ids=lambda c: c.__name__)
def test_a_pattern_arc_or_edge_refuses_loops_and_bad_congruences(cls):
    with pytest.raises(ValueError, match="may not be loops"):
        cls(1, 1, 1, 1, 0, 2)
    with pytest.raises(ValueError, match="modulus must be at least 2, got 1"):
        cls(0, 1, 1, 1, 0, 1)
    with pytest.raises(TypeError, match="modulus must be an int"):
        cls(0, 1, 1, 1, 0, 2.0)
    with pytest.raises(ValueError, match="a and b must be coprime to the modulus"):
        cls(0, 1, 2, 1, 0, 4)


def test_a_pattern_arc_or_edge_reduces_its_congruence_and_an_edge_orders_its_ends():
    arc = PatternArc(3, 1, 8, -1, 12, 5)
    assert (arc.tail, arc.head, arc.a, arc.b, arc.r, arc.q) == (3, 1, 3, 4, 2, 5)
    edge = UndirectedPatternEdge(3, 1, 8, -1, 12, 5)
    assert (edge.u, edge.v, edge.a, edge.b, edge.r, edge.q, edge.key) == (1, 3, 3, 4, 2, 5, (1, 3))


@pytest.mark.parametrize("cls, item", [(SubdivisionPattern, PatternArc),
                                       (UndirectedPattern, UndirectedPatternEdge)],
                         ids=["SubdivisionPattern", "UndirectedPattern"])
def test_a_pattern_sorts_its_items_and_refuses_repeats_and_stray_ends(cls, item):
    items = (item(1, 2, 1, 1, 0, 2), item(0, 1, 1, 1, 0, 2), item(0, 2, 1, 1, 0, 2))
    pattern = cls(3, items)
    assert [e.key for e in getattr(pattern, "arcs", None) or pattern.edges] == [
        (0, 1), (0, 2), (1, 2)]
    assert pattern == cls(3, items[::-1])
    with pytest.raises(ValueError, match="vertex count must be nonnegative, got -1"):
        cls(-1, ())
    with pytest.raises(ValueError, match=r"duplicate pattern (arc|edge) \(0, 1\)"):
        cls(3, items + (item(0, 1, 1, 1, 1, 2),))
    with pytest.raises(ValueError, match=r"pattern (arc|edge) \(0, 3\) uses an unknown vertex"):
        cls(3, items + (item(0, 3, 1, 1, 1, 2),))


def test_a_residue_query_reduces_its_target_adds_its_ends_and_refuses_bad_ends():
    query = ResidueQuery(0, 2, 4, 5, 3, 7, frozenset({1}))
    assert (query.a, query.b, query.target, query.endpoints) == (1, 2, 1, frozenset({0, 1, 2}))
    with pytest.raises(ValueError, match="endpoints must be distinct"):
        ResidueQuery(1, 1, 1, 1, 2, 0)
    with pytest.raises(ValueError, match="u and v may not be forbidden"):
        ResidueQuery(0, 1, 1, 1, 2, 0, forbidden=frozenset({1}))
    with pytest.raises(ValueError, match="a and b must be coprime to the modulus"):
        ResidueQuery(1, 1, 2, 1, 4, 0)  # the congruence is checked first


def test_a_pattern_arc_takes_ids_by_the_id_rule_and_ints_by_the_count_rule():
    """An end is converted exactly, as a vertex id is, so a float end that
    equals an int makes the same arc and the finder answers for it; a,
    b and r are strict ints.  Before, 0.0 reached the finder's rank lists
    and 0.5 its residue shifts, each as a ``TypeError`` from inside."""
    arc = PatternArc(0.0, 1, 1, 1, 1, 2)
    assert arc == PatternArc(0, 1, 1, 1, 1, 2) and type(arc.tail) is int
    found = find_subdivision(bio_clique(3), SubdivisionPattern(2, (arc,)))
    assert found.witness.paths[0, 1].vertices == (0, 1)
    with pytest.raises(ValueError, match="^vertex id 1.5 is not an integer$"):
        PatternArc(1.5, 0, 1, 1, 1, 2)
    with pytest.raises(TypeError, match="^residue must be an int$"):
        PatternArc(0, 1, 1, 1, 0.5, 2)
    with pytest.raises(TypeError, match="^a must be an int$"):
        PatternArc(0, 1, 1.0, 1, 1, 2)
    with pytest.raises(TypeError, match="^b must be an int$"):
        PatternArc(0, 1, 1, True, 1, 2)


def test_an_undirected_pattern_edge_takes_ids_by_the_id_rule_and_ints_by_the_count_rule():
    edge = UndirectedPatternEdge(1.0, 0.0, 1, 1, 1, 2)
    assert edge == UndirectedPatternEdge(0, 1, 1, 1, 1, 2) and type(edge.u) is int
    G = UndirectedLabeledGraph(range(3), [(0, 1), (1, 2), (0, 2)], b1=[(0, 1), (1, 2), (0, 2)])
    found = find_subdivision_undirected(G, UndirectedPattern(2, (edge,)))
    assert found.witness.paths[0, 1] == (0, 1)
    with pytest.raises(ValueError, match="^vertex id 0.5 is not an integer$"):
        UndirectedPatternEdge(0.5, 1, 1, 1, 1, 2)
    with pytest.raises(TypeError, match="^residue must be an int$"):
        UndirectedPatternEdge(0, 1, 1, 1, 1.0, 2)


def test_a_residue_query_takes_ids_by_the_id_rule_and_its_target_by_the_count_rule():
    """A float target failed only at the first draw, and a fractional
    forbidden id was kept and matched no vertex."""
    query = ResidueQuery(0.0, 2, 1, 1, 3, 1, endpoints={1.0}, forbidden={3.0})
    assert query == ResidueQuery(0, 2, 1, 1, 3, 1, frozenset({1}), frozenset({3}))
    assert all(type(v) is int for v in query.endpoints | query.forbidden)
    with pytest.raises(TypeError, match="^target must be an int$"):
        ResidueQuery(0, 1, 1, 1, 3, 1.5)
    with pytest.raises(ValueError, match="^vertex id 2.5 is not an integer$"):
        ResidueQuery(0, 1, 1, 1, 3, 1, forbidden={2.5})
    with pytest.raises(ValueError, match="^vertex id 0.5 is not an integer$"):
        ResidueQuery(0, 1, 1, 1, 3, 1, endpoints={0.5})


def test_a_cycle_packing_and_a_report_derive_their_properties():
    assert VerificationReport(True) and not VerificationReport(False, "x")
    packing = CyclePacking(3, (DirectedCycle((0, 1), 1, 0),))
    assert (packing.complete, packing.shortfall) == (False, 2)


def test_records_keep_the_callers_lists_as_tuples():
    """A list given for a path's or cycle's vertices, a partition's blocks
    or a witness's branch is kept as a tuple: the record equals, and hashes
    as, the one built from a tuple, and no later change to the list
    reaches it."""
    blocks = [frozenset({0}), frozenset({1, 2})]
    for given, make in [([0, 1, 2], DirectedPath), ([0, 1, 2], lambda s: DirectedCycle(s, 1, 0)),
                        (blocks, VertexPartition), ([0, 1], SubdivisionWitness)]:
        record, twin = make(given), make(tuple(given))
        assert _fields(record) == _fields(twin) and record == twin
        if make is not SubdivisionWitness:  # its paths are a dict
            assert hash(record) == hash(twin)
        given.append(0)
        assert _fields(record) == _fields(twin)
    assert UndirectedWitness([0, 1]).branch == (0, 1)
    vertices = (0, 1, 2)
    assert DirectedPath(vertices).vertices is vertices


def test_a_partition_keeps_each_block_as_a_frozenset():
    """Blocks given as sets are frozen, so the partition hashes and no later
    change to a caller's set makes its checked blocks overlap; blocks given
    as frozensets are kept, not copied."""
    given = [{0}, {1, 2}]
    partition = VertexPartition(given)
    assert [type(b) for b in partition.blocks] == [frozenset, frozenset]
    twin = VertexPartition((frozenset({0}), frozenset({1, 2})))
    assert partition == twin and hash(partition) == hash(twin)
    given[0].add(1)
    assert partition.blocks == twin.blocks
    assert all(a is b for a, b in zip(VertexPartition(twin.blocks).blocks, twin.blocks))


def test_a_residue_query_keeps_its_vertex_sets_as_frozensets():
    """``endpoints`` and ``forbidden`` given as sets are frozen, so the
    query hashes and its checked ``forbidden`` cannot take u or v later."""
    endpoints, forbidden = {1}, {5}
    query = ResidueQuery(0, 2, 1, 1, 3, 1, endpoints, forbidden)
    assert (type(query.endpoints), type(query.forbidden)) == (frozenset, frozenset)
    twin = ResidueQuery(0, 2, 1, 1, 3, 1, frozenset({1}), frozenset({5}))
    assert query == twin and hash(query) == hash(twin)
    endpoints.add(3)
    forbidden.add(0)
    assert (query.endpoints, query.forbidden) == ({0, 1, 2}, {5})


@pytest.mark.parametrize("cls, item", [(SubdivisionPattern, PatternArc),
                                       (UndirectedPattern, UndirectedPatternEdge)],
                         ids=["SubdivisionPattern", "UndirectedPattern"])
def test_a_pattern_reads_items_given_as_an_iterator_once(cls, item):
    """The items are checked and sorted from one reading, so an iterator
    gives the pattern a tuple gives, not one without items."""
    items = (item(1, 2, 1, 1, 0, 2), item(0, 1, 1, 1, 0, 2))
    assert cls(3, iter(items)) == cls(3, items)


# -- the library builds its records without dataclasses -------------------------------

def _dataclasses_imports(source: str) -> list[str]:
    """The lines of ``source`` that import ``dataclasses`` or a name from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            lines.append(f"line {node.lineno}")
    return lines


@pytest.mark.parametrize("path", sorted((SRC / "dichromate").glob("*.py")), ids=lambda p: p.name)
def test_no_library_module_imports_dataclasses(path):
    assert _dataclasses_imports(path.read_text(encoding="utf-8")) == []


def test_a_dataclasses_import_is_reported():
    source = ("import os\nfrom dataclasses import dataclass\nimport dataclasses as dc\n"
              "from .dataclasses import x\nfrom typing import NamedTuple\n")
    assert _dataclasses_imports(source) == ["line 2", "line 3"]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = ("import sys\nimport dichromate.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
