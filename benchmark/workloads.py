"""The four workloads: how each batch of instances is drawn from the seed,
solved through the library's public calls, and checked.

A workload's ``build`` runs in set-up.  It returns ``Item``s whose instance
and pattern text are parsed afresh before every timed solve, so no solve
sees a digraph or pattern object that an earlier solve touched.  ``solve``
is the timed call sequence; it makes the same public calls as the matching
CLI subcommand and builds any oracle inside the timer.  ``check`` runs after
the timer and returns ``(failure reason or None, digest text)``.

The library is passed in as ``lib`` (the imported package) and every call
goes through its attributes, so the traced run's wrappers are seen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from checkers import check_mu, check_witness

FLOOR = 14             # core floor for both pipelines (the smallest that works)
DIRECT_BUDGET = 10 ** 7  # the CLI's default --budget


@dataclass
class Item:
    label: str
    text: str                   # instance file text
    pattern: str | None = None  # pattern file text
    arcs: tuple = ()            # pattern arcs (tail, head, a, b, r, q) for the checker
    start: int | None = None
    expected: object = None     # reference value or status; None when unknown


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _pattern_text(num_vertices: int, arcs) -> str:
    lines = ["pattern 1", f"n {num_vertices}"]
    lines += [" ".join(["e", *map(str, a)]) for a in arcs]
    return "\n".join(lines) + "\n"


def _stratified(pool: list, count: int, take_all: int, rng: random.Random) -> list:
    """``count`` picks from ``pool``, which is sorted by the seed code's solve
    time: the ``take_all`` costliest members always, and one pick from each
    of ``count - take_all`` equal slices of the rest.  One random offset u
    places the picks: at u within even slices, at 1 - u within odd ones, so
    neighbouring shifts cancel.  Every batch then covers the pool's cost
    quantiles alike, and no extreme instance swings one seed against another."""
    rest = pool[:len(pool) - take_all]
    k = count - take_all
    u = rng.random()
    return [rest[int((j + (u if j % 2 == 0 else 1 - u)) * len(rest) / k)]
            for j in range(k)] + pool[len(rest):]


def _witness_parts(witness):
    return witness.branch, {k: p.vertices for k, p in witness.paths.items()}


# -- mu-random ---------------------------------------------------------------

class MuRandom:
    name = "mu-random"
    why = "exact mu on seeded random digraphs; mu search, balance tests and subgraph builds"
    nominal_pass_s = 3.0
    batch_size = 40
    take_all = 4
    search_status = None

    def build(self, lib, seed, reference, smoke):
        rng = _rng(seed, self.name)
        if smoke:
            picks = [(8, rng.randrange(10 ** 6), None) for _ in range(3)]
        else:
            pool = reference["mu-random"]
            picks = [(pool["n"], row[0], row[1]) for row in
                     _stratified(pool["pool"], self.batch_size, self.take_all, rng)]
        return [Item(f"random-{n}-{s}",
                     lib.emit_instance(lib.gen_random(n, .5, .5, .5, seed=s)),
                     expected=value)
                for n, s, value in picks]

    def solve(self, lib, D, pattern, item):
        return lib.mu_exact(D)

    def check(self, g, item, result):
        blocks = [sorted(b) for b in result.certificate.blocks]
        digest = f"mu {result.value} " + " | ".join(" ".join(map(str, b)) for b in blocks)
        reason = check_mu(g, result.value, blocks)
        if reason is None and item.expected is not None and result.value != item.expected:
            reason = f"mu {result.value} differs from the reference {item.expected}"
        return reason, digest


# -- direct ------------------------------------------------------------------

K4_TRANSITIVE = [(i, j, 1, 1, 1, 5) for i in range(4) for j in range(i + 1, 4)]


class Direct:
    name = "direct"
    why = "direct subdivision search; path DFS on dense hosts, exhaustive walk-table search on sparse"
    nominal_pass_s = 6.3
    per_kind = 17
    take_all = 2

    def build(self, lib, seed, reference, smoke):
        rng = _rng(seed, self.name)
        pattern = _pattern_text(4, K4_TRANSITIVE)
        if smoke:
            kinds = [(8, .3, [(rng.randrange(10 ** 6), None)]),
                     (8, .15, [(rng.randrange(10 ** 6), None)])]
        else:
            kinds = [(k["n"], k["p"], [row[:2] for row in
                                       _stratified(k["hosts"], self.per_kind, self.take_all, rng)])
                     for k in reference["direct"].values()]
        items = []
        for n, p, hosts in kinds:
            for s, status in hosts:
                items.append(Item(f"random-{n}-{p}-{s}",
                                  lib.emit_instance(lib.gen_random(n, p, .5, .5, seed=s)),
                                  pattern=pattern, arcs=tuple(K4_TRANSITIVE),
                                  expected=status))
        return items

    def solve(self, lib, D, pattern, item):
        outcome = lib.find_subdivision(D, pattern, budget=DIRECT_BUDGET)
        if outcome.status != lib.FOUND:
            return outcome, None, None
        report = lib.verify_witness(D, pattern, outcome.witness)
        return outcome, report, lib.emit_witness(outcome.witness)

    @staticmethod
    def search_status(result):
        """(status, witness paths kept), by which the traced run splits search metrics."""
        outcome = result[0]
        return outcome.status, len(outcome.witness.paths) if outcome.witness else 0

    def check(self, g, item, result):
        outcome, report, text = result
        digest = f"{outcome.status} {outcome.expansions}\n{text or ''}"
        if outcome.status not in ("found", "absent"):
            return f"search ended {outcome.status}", digest
        if item.expected is not None and outcome.status != item.expected:
            return f"status {outcome.status} differs from the reference {item.expected}", digest
        if outcome.status == "found":
            if not report.ok:
                return f"library verifier rejected the witness: {report.failure}", digest
            return check_witness(g, item.arcs, *_witness_parts(outcome.witness)), digest
        return None, digest


# -- the two extraction pipelines --------------------------------------------

class _Pipeline:
    search_status = None

    def solve(self, lib, D, pattern, item):
        oracle = self.oracle(lib, D)
        witness = lib.extract_subdivision(D, pattern, oracle, floor=FLOOR, start=item.start)
        report = lib.verify_witness(D, pattern, witness)
        return witness, report, lib.emit_witness(witness)

    def check(self, g, item, result):
        witness, report, text = result
        if not report.ok:
            return f"library verifier rejected the witness: {report.failure}", text
        return check_witness(g, item.arcs, *_witness_parts(witness)), text


class PipelineAnalytic(_Pipeline):
    name = "pipeline-analytic"
    why = "constructive extraction on bioriented cliques with the closed-form oracle; decomposition and self-checks"
    nominal_pass_s = 4.7
    sizes = (120, 140)

    @staticmethod
    def oracle(lib, D):
        return lib.BiorientedCliqueOracle(D)

    def build(self, lib, seed, reference, smoke):
        rng = _rng(seed, self.name)
        shapes = [
            (2, [(0, 1, 1, 1, rng.randrange(3), 3)]),
            (2, [(0, 1, 1, 1, rng.randrange(2), 2), (1, 0, 1, 1, rng.randrange(2), 2)]),
            (3, [(0, 1, 1, 1, rng.randrange(2), 2), (1, 2, 1, 1, rng.randrange(2), 2),
                 (2, 0, 1, 1, rng.randrange(2), 2)]),
        ]
        sizes = (24,) if smoke else self.sizes
        if smoke:
            shapes = [(2, [(0, 1, 1, 1, rng.randrange(2), 2)])]
        items = []
        for n in sizes:
            text = lib.emit_instance(lib.gen_bioriented_clique(n))
            for k, arcs in shapes:
                items.append(Item(f"clique-{n}-{len(arcs)}arc", text,
                                  pattern=_pattern_text(k, arcs), arcs=tuple(arcs),
                                  start=rng.randrange(n), expected="found"))
        return items


class PipelineExact(_Pipeline):
    """Hub family: a z1-labelled bioriented K_m plus one unlabelled hub joined
    to every clique vertex by a digon, so mu = m.  Relabelling the clique
    vertices among themselves maps the digraph to itself, so the only
    relabelling that matters is the hub's rank in the vertex order, and run
    time depends mostly on it.  Every batch therefore places the hub at the
    same ranks; the seed draws each pattern's residue.  Five ranks of
    distinct cost make an odd batch, so with three passes the median and
    the tail each read the middle one of a single instance's three solves."""

    name = "pipeline-exact"
    why = "constructive extraction with the exact mu oracle; oracle caches and many small mu queries"
    nominal_pass_s = 4.5
    m = 22
    hub_ranks = (0, 6, 12, 15, 18)

    @staticmethod
    def oracle(lib, D):
        return lib.ExactMuOracle(D)

    def build(self, lib, seed, reference, smoke):
        rng = _rng(seed, self.name)
        items = []
        for hub in self.hub_ranks[:1] if smoke else self.hub_ranks:
            clique = [v for v in range(self.m + 1) if v != hub]
            arcs = [(u, v) for u in clique for v in clique if u != v]
            digons = [(hub, v) for v in clique] + [(v, hub) for v in clique]
            D = lib.LabeledDigraph.on_range(self.m + 1, arcs + digons, z1=arcs)
            r = rng.randrange(2)
            items.append(Item(f"hub-{self.m}-rank{hub}-r{r}", lib.emit_instance(lib.Instance(D)),
                              pattern=_pattern_text(2, [(0, 1, 1, 1, r, 2)]),
                              arcs=((0, 1, 1, 1, r, 2),), expected="found"))
        return items


WORKLOADS = {w.name: w for w in (MuRandom(), Direct(), PipelineAnalytic(), PipelineExact())}
