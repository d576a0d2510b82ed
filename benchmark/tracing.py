"""Span tracing for the traced run, installed from outside the library.

``install`` wraps every public function of each layer module, at every
module attribute that callers look it up through (the defining module and
each module that imported the name), plus ``LabeledDigraph.induced`` and the
oracles' ``mu`` and ``mu_at_least``.  Each call becomes a span: name, start,
end, parent span and instance id, kept in flat arrays and written out when
the run ends.  A generator function gets one span per resumption.  Self time
is a span's duration minus its child spans.  Nothing here is installed
during untraced runs.
"""

from __future__ import annotations

import array
import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("digraph", "balance", "mu", "oracles", "decomposition", "constructive",
          "search", "subdivision", "formats", "generators")
SETUP_LAYERS = ("formats", "generators")
SOLVE = "bench.solve"
SETUP = "bench.setup"
STATUSES = ("found", "absent")


class Spans:
    """Flat, append-only span store.  A span's index is taken when it opens,
    so a parent always precedes its children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("i")
        self.inst = array.array("i")
        self.current = -1
        self.instance = -1
        self.counters: dict[tuple[int, str], float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.current)
        self.inst.append(self.instance)
        self.end.append(0)
        self.current = i
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.current = self.parent[i]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[(self.instance, key)] += amount

    def write(self, path: str) -> None:
        """Header line of JSON, then the five columns as raw arrays."""
        header = {"names": self.names, "spans": len(self.name),
                  "columns": ["name:i32", "start_ns:i64", "end_ns:i64",
                              "parent:i32", "instance:i32"]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.name, self.start, self.end, self.parent, self.inst):
                col.tofile(fh)


# Counters recorded at layer boundaries: name -> hook(spans, args, result).
def _induced(s, args, result):
    s.count("digraph.induced.arcs_scanned", args[0].arc_count)


def _balance(s, args, result):
    s.count("balance.has_unbalanced_cycle.rejects", bool(result))


def _mu(s, args, result):
    for trace in result.lower_bound_trace:
        for k, nodes in trace.attempts:
            s.count("mu.search_nodes", nodes)
            if k < trace.value:
                s.count("mu.refute_nodes", nodes)


def _walk_table(s, args, result):
    s.count("search.walk_reach_table.states", sum(len(v) for v in result.values()))


def _find(s, args, result):
    s.count("search.expansions", result.expansions)


HOOKS = {"digraph.induced": _induced, "balance.has_unbalanced_cycle": _balance,
         "mu.mu_exact": _mu, "search.walk_reach_table": _walk_table,
         "search.find_subdivision": _find}
ERROR_COUNTS = {"mu.mu_exact": "mu.mu_exact.bound_exceeded"}


def _wrap(fn, name: str, spans: Spans):
    nid = spans.name_id(name)
    hook = HOOKS.get(name)
    error_key = ERROR_COUNTS.get(name)

    if inspect.isgeneratorfunction(fn):
        def resumptions(gen):
            while True:
                i = spans.open(nid)
                try:
                    value = next(gen)
                except StopIteration:
                    spans.close(i)
                    return
                except BaseException:
                    spans.close(i)
                    raise
                spans.close(i)
                spans.count(name + ".yielded")
                yield value

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            return resumptions(fn(*args, **kwargs))
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = spans.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            spans.close(i)
            if error_key and type(exc).__name__ == "MuBoundExceeded":
                spans.count(error_key)
            raise
        spans.close(i)
        if hook is not None:
            hook(spans, args, result)
        return result
    return wrapper


def install(package, spans: Spans):
    """Wrap the layer functions; returns an undo list of (owner, attr, original)."""
    prefix = package.__name__ + "."
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == package.__name__ or n.startswith(prefix))]
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[prefix + layer]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrapped[id(obj)] = (obj, _wrap(obj, f"{layer}.{attr}", spans))
    undo = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                undo.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)][1])
    methods = [(package.LabeledDigraph, "induced", "digraph.induced"),
               (package.ExactMuOracle, "mu", "oracles.ExactMuOracle.mu"),
               (package.ExactMuOracle, "mu_at_least", "oracles.ExactMuOracle.mu_at_least"),
               (package.BiorientedCliqueOracle, "mu", "oracles.BiorientedCliqueOracle.mu")]
    for owner, attr, name in methods:
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, _wrap(original, name, spans))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# -- summaries ----------------------------------------------------------------

def _ratio(value: float) -> tuple[float, str]:
    return value, "ratio"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    names = [
        ("digraph.share", "ratio"),
        ("digraph.induced.calls", "count"), ("digraph.induced.share", "ratio"),
        ("digraph.induced.arcs_scanned", "count"),
        ("digraph.strong_components.calls", "count"),
        ("digraph.strong_components.share", "ratio"),
        ("digraph.leveling.share", "ratio"), ("digraph.first_path_to_set.share", "ratio"),
        ("balance.share", "ratio"),
        ("balance.has_unbalanced_cycle.calls", "count"),
        ("balance.has_unbalanced_cycle.share", "ratio"),
        ("balance.has_unbalanced_cycle.reject_ratio", "ratio"),
        ("balance.shortest_unbalanced_cycle.share", "ratio"),
        ("balance.disjoint_unbalanced_cycles.share", "ratio"),
        ("mu.share", "ratio"), ("mu.mu_exact.calls", "count"), ("mu.mu_exact.share", "ratio"),
        ("mu.mu_exact.bound_exceeded", "count"), ("mu.search_nodes", "count"),
        ("mu.nodes_per_s", "1/s"), ("mu.refute_share", "ratio"),
        ("oracles.share", "ratio"), ("oracles.queries", "count"),
        ("oracles.solver_calls", "count"), ("oracles.hit_ratio", "ratio"),
        ("decomposition.share", "ratio"), ("decomposition.level_split.calls", "count"),
        ("decomposition.level_split.share", "ratio"),
        ("decomposition.connector_set.share", "ratio"),
        ("decomposition.nested_connector_sequence.share", "ratio"),
        ("constructive.share", "ratio"),
    ]
    names += [(f"constructive.{f}.share", "ratio") for f in
              ("two_arc_cycle", "special_set", "gadget_sequences",
               "residue_universal_set", "extract_subdivision")]
    names += [("constructive.selfcheck_share", "ratio"), ("search.share", "ratio")]
    for st in STATUSES:
        names += [(f"search.{st}.expansions", "count"),
                  (f"search.{st}.expansions_per_s", "1/s"),
                  (f"search.{st}.walk_reach_table.calls", "count"),
                  (f"search.{st}.walk_reach_table.share", "ratio"),
                  (f"search.{st}.walk_reach_table.states", "count"),
                  (f"search.{st}.iter_residue_paths.resumptions", "count"),
                  (f"search.{st}.iter_residue_paths.share", "ratio"),
                  (f"search.{st}.residue_paths.useful_ratio", "ratio")]
    names += [("subdivision.share", "ratio"), ("subdivision.verify_witness.calls", "count"),
              ("subdivision.verify_witness.share", "ratio"),
              ("formats.parse_instance.setup_share", "ratio"),
              ("generators.setup_share", "ratio"),
              ("trace.ips_ratio", "ratio"), ("trace.spans", "count")]
    return names


class Summary:
    """Per-name calls, self and inclusive time, split by the root span kind
    (solve or setup) and by the solved instance's status."""

    def __init__(self, spans: Spans, statuses: dict[int, str]):
        n = len(spans.name)
        names, name, start, end, parent, inst = (spans.names, spans.name, spans.start,
                                                 spans.end, spans.parent, spans.inst)
        child = [0] * n
        root = [0] * n
        for i in range(n):
            p = parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += end[i] - start[i]
        # (group, name) -> [calls, self_ns, inclusive_ns]; groups: "solve",
        # "setup", and "solve:<status>".
        self.table: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.root_ns: dict[str, int] = defaultdict(int)
        self.solver_calls = 0
        self.instances: dict[str, set[int]] = defaultdict(set)
        for i in range(n):
            kind = names[name[root[i]]]
            if kind == SOLVE:
                groups = ("solve", "solve:" + statuses.get(inst[i], "other"))
            elif kind == SETUP:
                groups = ("setup",)
            else:
                continue
            nm = names[name[i]]
            dur = end[i] - start[i]
            for g in groups:
                row = self.table[(g, nm)]
                row[0] += 1
                row[1] += dur - child[i]
                row[2] += dur
                if nm in (SOLVE, SETUP):
                    self.root_ns[g] += dur
                    self.instances[g].add(inst[i])
            if nm == "mu.mu_exact" and parent[i] >= 0 and \
                    names[name[parent[i]]].startswith("oracles.ExactMuOracle"):
                self.solver_calls += 1
        self.counters: dict[str, float] = defaultdict(float)
        for (i, key), value in spans.counters.items():
            self.counters[("solve:" + statuses.get(i, "other"), key)] += value
            self.counters[("solve", key)] += value
        self.spans = n

    def get(self, group: str, name: str, col: int) -> float:
        return self.table.get((group, name), (0, 0, 0))[col]

    def layer_self(self, group: str, layer: str) -> int:
        return sum(r[1] for (g, nm), r in self.table.items()
                   if g == group and nm.split(".")[0] == layer)

    def metrics(self, ips_ratio: float) -> dict[str, tuple[float, str]]:
        solve_ns = self.root_ns["solve"] or 1
        setup_ns = self.root_ns["setup"] or 1
        solves = len(self.instances["solve"]) or 1

        def share(name, group="solve", base=solve_ns):
            return self.get(group, name, 1) / base

        def per_solve(value):
            return value / solves

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counters
        m: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            if layer not in SETUP_LAYERS:
                m[f"{layer}.share"] = _ratio(self.layer_self("solve", layer) / solve_ns)
        m["digraph.induced.calls"] = (per_solve(self.get("solve", "digraph.induced", 0)), "count")
        m["digraph.induced.share"] = _ratio(share("digraph.induced"))
        m["digraph.induced.arcs_scanned"] = (per_solve(c[("solve", "digraph.induced.arcs_scanned")]), "count")
        m["digraph.strong_components.calls"] = (per_solve(self.get("solve", "digraph.strong_components", 0)), "count")
        for f in ("strong_components", "leveling", "first_path_to_set"):
            m[f"digraph.{f}.share"] = _ratio(share(f"digraph.{f}"))
        tests = self.get("solve", "balance.has_unbalanced_cycle", 0)
        m["balance.has_unbalanced_cycle.calls"] = (per_solve(tests), "count")
        m["balance.has_unbalanced_cycle.share"] = _ratio(share("balance.has_unbalanced_cycle"))
        m["balance.has_unbalanced_cycle.reject_ratio"] = _ratio(
            ratio(c[("solve", "balance.has_unbalanced_cycle.rejects")], tests))
        for f in ("shortest_unbalanced_cycle", "disjoint_unbalanced_cycles"):
            m[f"balance.{f}.share"] = _ratio(share(f"balance.{f}"))
        nodes = c[("solve", "mu.search_nodes")]
        m["mu.mu_exact.calls"] = (per_solve(self.get("solve", "mu.mu_exact", 0)), "count")
        m["mu.mu_exact.share"] = _ratio(share("mu.mu_exact"))
        m["mu.mu_exact.bound_exceeded"] = (per_solve(c[("solve", "mu.mu_exact.bound_exceeded")]), "count")
        m["mu.search_nodes"] = (per_solve(nodes), "count")
        m["mu.nodes_per_s"] = (ratio(nodes, self.get("solve", "mu.mu_exact", 2) / 1e9), "1/s")
        m["mu.refute_share"] = _ratio(ratio(c[("solve", "mu.refute_nodes")], nodes))
        queries = sum(self.get("solve", f"oracles.ExactMuOracle.{f}", 0) for f in ("mu", "mu_at_least"))
        m["oracles.queries"] = (per_solve(queries), "count")
        m["oracles.solver_calls"] = (per_solve(self.solver_calls), "count")
        m["oracles.hit_ratio"] = _ratio(ratio(queries - self.solver_calls, queries))
        m["decomposition.level_split.calls"] = (per_solve(self.get("solve", "decomposition.level_split", 0)), "count")
        for f in ("level_split", "connector_set", "nested_connector_sequence"):
            m[f"decomposition.{f}.share"] = _ratio(share(f"decomposition.{f}"))
        for f in ("two_arc_cycle", "special_set", "gadget_sequences",
                  "residue_universal_set", "extract_subdivision"):
            m[f"constructive.{f}.share"] = _ratio(share(f"constructive.{f}"))
        checks = sum(self.get("solve", f"constructive.check_{f}", 2) for f in
                     ("special_set", "gadget_sequences", "residue_universal_set"))
        m["constructive.selfcheck_share"] = _ratio(checks / solve_ns)
        for st in STATUSES:
            g = "solve:" + st
            base = self.root_ns[g]
            n_st = len(self.instances[g]) or 1
            exp = c[(g, "search.expansions")]
            yielded = c[(g, "search.iter_residue_paths.yielded")]
            m[f"search.{st}.expansions"] = (exp / n_st, "count")
            m[f"search.{st}.expansions_per_s"] = (ratio(exp, base / 1e9), "1/s")
            m[f"search.{st}.walk_reach_table.calls"] = (self.get(g, "search.walk_reach_table", 0) / n_st, "count")
            m[f"search.{st}.walk_reach_table.share"] = _ratio(ratio(self.get(g, "search.walk_reach_table", 1), base))
            m[f"search.{st}.walk_reach_table.states"] = (c[(g, "search.walk_reach_table.states")] / n_st, "count")
            m[f"search.{st}.iter_residue_paths.resumptions"] = (self.get(g, "search.iter_residue_paths", 0) / n_st, "count")
            m[f"search.{st}.iter_residue_paths.share"] = _ratio(ratio(self.get(g, "search.iter_residue_paths", 1), base))
            m[f"search.{st}.residue_paths.useful_ratio"] = _ratio(ratio(c[(g, "search.residue_paths.kept")], yielded))
        m["subdivision.verify_witness.calls"] = (per_solve(self.get("solve", "subdivision.verify_witness", 0)), "count")
        m["subdivision.verify_witness.share"] = _ratio(share("subdivision.verify_witness"))
        m["formats.parse_instance.setup_share"] = _ratio(share("formats.parse_instance", "setup", setup_ns))
        m["generators.setup_share"] = _ratio(self.layer_self("setup", "generators") / setup_ns)
        m["trace.ips_ratio"] = _ratio(ips_ratio)
        m["trace.spans"] = (self.spans, "count")
        return {name: m[name] for name, _unit in per_layer_names()}

    def report_lines(self) -> list[str]:
        """Human-readable table: per layer and per function, calls, self
        seconds and share of solve (or set-up) time."""
        lines = []
        for group in ("solve", "setup"):
            base = self.root_ns[group] or 1
            lines.append(f"[{group}] total {base / 1e9:.4f} s over "
                         f"{len(self.instances[group])} root spans")
            rows = sorted(((nm, r) for (g, nm), r in self.table.items() if g == group),
                          key=lambda t: -t[1][1])
            for nm, (calls, self_ns, incl_ns) in rows:
                lines.append(f"  {nm:48s} calls {calls:9d}  self_s {self_ns / 1e9:9.4f}  "
                             f"share {self_ns / base:6.3f}  incl_s {incl_ns / 1e9:9.4f}")
            layers = sorted({nm.split(".")[0] for (g, nm) in self.table if g == group})
            for layer in layers:
                s = self.layer_self(group, layer)
                lines.append(f"  layer {layer:42s} self_s {s / 1e9:9.4f}  share {s / base:6.3f}")
        res = self.get("solve", "search.iter_residue_paths", 0)
        if res:
            per = self.get("solve", "search.iter_residue_paths", 1) / res / 1e9
            lines.append(f"  search.iter_residue_paths self_s per resumption {per:.3e}")
        return lines
